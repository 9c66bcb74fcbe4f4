"""The package has callers: every public module-level function and class,
and every method of a package class, is used by the package itself, a demo
or the benchmark, and every defaulted parameter of a function or method, and
every defaulted field of a public dataclass, is passed by one of them, and
not by all of them as the same literal.  A defaulted parameter of a private
function or method is also left at its default by one of them.

A name that only tests call is a second implementation kept alive by its
own test; it belongs in the tests, as a reference, or nowhere.  So does an
option that only tests pass, or one that every caller sets to the same
literal: its value belongs in the function.  A private default that every
caller overrides serves only the tests: the parameter is required.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iswaves"
# re-exporting a name in __init__ is not a use of it
CALLERS = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + sorted(
    p for d in ("demos", "perfbench") for p in (ROOT / d).rglob("*.py")
)

ALLOWED: set[str] = set()


OPTIONS_ALLOWED: set[str] = set()


def _public_definitions():
    """(name, file, first line, last line) of each public top-level def."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((node.name, path, node.lineno, node.end_lineno))
    return out


def _locals(fn) -> set:
    """Names a function binds: its parameters and every assignment target."""
    a = fn.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    return names | {
        n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _collect(node, path, shadowed, uses) -> None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _locals(node)
    names = []
    if isinstance(node, ast.Name) and node.id not in shadowed:
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.ImportFrom):
        names = [alias.name for alias in node.names]
    for name in names:
        uses.setdefault(name, []).append((path, node.lineno))
    for child in ast.iter_child_nodes(node):
        _collect(child, path, shadowed, uses)


def _uses() -> dict:
    """name -> [(file, line)] of every identifier (a local variable of the
    same name excepted), attribute and import."""
    uses: dict = {}
    for path in CALLERS:
        _collect(ast.parse(path.read_text()), path, frozenset(), uses)
    return uses


def _unused() -> list:
    """Public names with no use outside their own definition, counting uses
    inside other unused definitions as none, until no more are found."""
    defs = _public_definitions()
    uses = _uses()
    dead: set = set()
    while True:
        spans = [(path, first, last) for name, path, first, last in defs if name in dead]
        found = set()
        for name, path, first, last in defs:
            excluded = spans + [(path, first, last)]
            live = [
                (p, line) for p, line in uses.get(name, ())
                if not any(p == q and a <= line <= b for q, a, b in excluded)
            ]
            if not live and name not in ALLOWED:
                found.add(name)
        if found == dead:
            return sorted(f"{path.stem}.{name}" for name, path, *_ in defs if name in dead)
        dead = found


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _unused()
    assert unused == [], f"public names with no caller in src/, demos/ or perfbench/: {unused}"


def _methods():
    """(Class.method, file, first line, last line) of each method of a
    package class, dunders excepted."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{node.name}.{fn.name}", path, fn.lineno, fn.end_lineno)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))
                ]
    return out


def _attribute_reads() -> dict:
    """name -> [(file, line)] of every attribute read (`x.name`, not an
    assignment to one)."""
    reads: dict = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    return reads


# the attributes of the built-in containers and of numpy arrays, whose reads
# a match by name cannot tell from a method's
_BUILTIN_ATTRIBUTES = set().union(*map(dir, (str, bytes, list, dict, np.ndarray)))


def test_every_method_has_a_caller_outside_the_tests():
    # a method is used where an attribute of its name is read outside its
    # own definition; names are matched, not receivers, so no method may
    # share its name with an attribute of str, bytes, list, dict or ndarray
    methods = _methods()
    shared = sorted(m for m, *_ in methods if m.split(".")[1] in _BUILTIN_ATTRIBUTES)
    assert shared == [], f"methods named like a built-in or ndarray attribute: {shared}"
    reads = _attribute_reads()
    uncalled = sorted(
        method
        for method, path, first, last in methods
        if all(
            p == path and first <= line <= last for p, line in reads.get(method.split(".")[1], ())
        )
    )
    assert uncalled == [], f"methods with no caller in src/, demos/ or perfbench/: {uncalled}"


def test_allowlist_is_current():
    defined = {name for name, *_ in _public_definitions()}
    assert ALLOWED <= defined


def _is_dataclass(node) -> bool:
    """Whether a class is decorated @dataclass or @dataclass(...)."""
    decorators = [getattr(d, "func", d) for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def _dataclass_options(node):
    """(Class.field, position) of every defaulted field of a dataclass: the
    fields are its constructor's parameters, in order."""
    fields = [x for x in node.body if isinstance(x, ast.AnnAssign)]
    return [(f"{node.name}.{x.target.id}", i) for i, x in enumerate(fields) if x.value is not None]


def _defaulted(fn, name: str, skip: int):
    """(name.parameter, position or None) of every defaulted parameter of
    fn, None for a keyword-only one; positions count the arguments a caller
    passes, past the first skip (self)."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(f"{name}.{x.arg}", i - skip) for i, x in enumerate(positional) if i >= first]
    out += [
        (f"{name}.{x.arg}", None)
        for x, default in zip(a.kwonlyargs, a.kw_defaults)
        if default is not None
    ]
    return out


def _options(private: bool = False):
    """The defaulted parameters (`_defaulted`) of every public top-level
    function, and (Class.field, position) of every defaulted field of a
    public dataclass; or, when private, those of every private top-level
    function and of every method, an __init__ under its class's name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private:
                out += _defaulted(node, node.name, 0)
            if not isinstance(node, ast.ClassDef):
                continue
            if not private and not node.name.startswith("_") and _is_dataclass(node):
                out += _dataclass_options(node)
            if private:
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        name = node.name if fn.name == "__init__" else fn.name
                        out += _defaulted(fn, name, 1)
    return out


def _calls() -> dict:
    """name -> one {position or keyword: argument} per call of that name in
    src/, demos/ or perfbench/; an unpacked argument is keyed "*"."""
    calls: dict = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            args = {"*" if isinstance(x, ast.Starred) else i: x for i, x in enumerate(node.args)}
            args.update({kw.arg or "*": kw.value for kw in node.keywords})
            calls.setdefault(name, []).append(args)
    return calls


def _unpassed_options() -> list:
    calls = _calls()
    out = []
    for option, position in _options() + _options(private=True):
        name, param = option.split(".")
        got = set().union(*calls.get(name, ()))
        if not ({"*", param, position} & got) and option not in OPTIONS_ALLOWED:
            out.append(option)
    return sorted(out)


def _constant_options() -> list:
    """Options that every call passes, each time as the same literal."""
    calls = _calls()
    out = []
    for option, position in _options() + _options(private=True):
        name, param = option.split(".")
        values = [call.get(param, call.get(position)) for call in calls.get(name, ())]
        if (
            values
            and all(isinstance(v, ast.Constant) for v in values)
            and len({repr(v.value) for v in values}) == 1
        ):
            out.append(option)
    return sorted(out)


def _overridden_defaults() -> list:
    """Private options that every call passes: their defaults serve only the
    tests."""
    calls = _calls()
    out = []
    for option, position in _options(private=True):
        name, param = option.split(".")
        passed = [bool({"*", param, position} & set(call)) for call in calls.get(name, ())]
        if passed and all(passed):
            out.append(option)
    return sorted(out)


def test_every_option_is_passed_outside_the_tests():
    unpassed = _unpassed_options()
    assert unpassed == [], (
        f"defaulted parameters or fields no caller in src/, demos/ or perfbench/ passes: "
        f"{unpassed}"
    )


def test_option_allowlist_is_current():
    assert OPTIONS_ALLOWED <= {option for option, _ in _options() + _options(private=True)}


def test_every_private_default_is_taken_outside_the_tests():
    overridden = _overridden_defaults()
    assert overridden == [], (
        f"defaulted parameters of private functions or methods that every caller in src/, "
        f"demos/ or perfbench/ passes: {overridden}"
    )


def test_no_option_is_always_passed_as_one_constant():
    # an option every caller sets to the same value is that value
    constant = _constant_options()
    assert constant == [], (
        f"defaulted parameters or fields every caller passes as one literal: {constant}"
    )


def _unused_imports(path: Path) -> list:
    """'file:line name' of each name a module imports and never reads; a
    name listed in the module's __all__ is read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # the project runs no linter, so this is its one check for dead imports
    paths = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == [], f"imported and never read: {unused}"


def test_json_is_written_only_by_config():
    # config.write_json is the package's one JSON writer: json.dump and
    # json.dumps appear in config.py and nowhere else in the package
    writers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                names = {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "json"):
                names = {node.attr}
            else:
                continue
            if names & {"dump", "dumps"}:
                writers.add(path.name)
    assert writers == {"config.py"}


# the transforms of numpy.fft (and of scipy.fft, which has the same names)
_FFT_TRANSFORMS = {
    f"{inverse}{kind}fft{dims}"
    for inverse in ("", "i") for kind in ("", "r", "h") for dims in ("", "2", "n")
}


def _fft_backend_uses(path: Path) -> list:
    """Lines of a module that call a transform through an `fft` module
    (np.fft.rfft, scipy.fft.irfft, ...), import a transform from numpy.fft or
    scipy.fft, or name numpy's private pocketfft modules."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            via_fft = isinstance(node.value, ast.Attribute) and node.value.attr == "fft"
            names = [node.attr] if via_fft and node.attr in _FFT_TRANSFORMS else []
            names += [node.attr] if "pocketfft" in node.attr else []
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] if "pocketfft" in module else []
            names += [
                alias.name for alias in node.names
                if "pocketfft" in alias.name
                or (module in ("numpy.fft", "scipy.fft") and alias.name in _FFT_TRANSFORMS)
            ]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if "pocketfft" in alias.name]
        else:
            continue
        lines += [f"{path.name}:{node.lineno} {name}" for name in names]
    return lines


def test_only_spectral_knows_the_fft_backend():
    # spectral.rfft and spectral.irfft are the package's one FFT entry point:
    # no other module calls a numpy.fft transform or reaches numpy's kernels
    uses = [line for path in sorted(PACKAGE.glob("*.py")) for line in _fft_backend_uses(path)]
    outside = [line for line in uses if not line.startswith("spectral.py:")]
    assert outside == [], f"FFT backend used outside spectral: {outside}"
    assert uses, "spectral names no FFT backend: the guard looks for the wrong names"


# every command on a small config (kernel-check on every kernel, decay on
# the branch continue writes), in the interpreter that imported iswaves,
# with the lazily imported modules each command loads first: no scipy, no
# numpy.ma, and numpy.random only for sweep's generator; argv: a config of
# the parameters and an output directory
_IMPORT_PROBE = """
import sys
from iswaves.cli import main

config, out = sys.argv[1:]
runs = {
    "validate": ["validate.omega=0.1"],
    "solve": ["solve.family=BFD_finite", "solve.omega=0.1", "grid.L=8", "grid.N=256"],
    "continue": ["params.mu2=inf", "grid.L=50", "grid.N=256", "continue.parameter=c",
                 "continue.target=0.02", "continue.milestones=0.01,0.02"],
    "decay": [f"decay.branch_dir={out}/continue/branch", "decay.window_lo=8",
              "decay.window_hi=16"],
    "evolve": ["evolve.family=bfd_finite", "evolve.T=0.1", "grid.L=20", "grid.N=64"],
    "kernel-check": ["kernel.which=all"],
    "sweep": ["sweep.draws=2"],
}
lazy = ("scipy", "numpy.ma", "numpy.random")
seen, loaded = set(), {}
for command, sets in runs.items():
    argv = [command, "--config", config, "--out", f"{out}/{command}"]
    assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0, command
    # importing a submodule imports its package first
    now = {m for m in lazy if m in sys.modules}
    if now - seen:
        loaded[command] = sorted(now - seen)
    seen |= now
assert loaded == {"sweep": ["numpy.random"]}, loaded
"""


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter, since this one imported scipy.fft in conftest:
    # importing iswaves and running the commands loads no scipy module and
    # no numpy.ma, and only sweep loads numpy.random
    config = tmp_path / "p1.cfg"
    config.write_text(
        "params.gamma = 0.5\nparams.epsilon = 0.1\nparams.mu = 0.1\n"
        "params.a = -0.08333333333333333\nparams.b = 0.25\n"
        "params.c = -0.08333333333333333\nparams.d = 0.25\nparams.mu2 = 4.0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _config_keys_read() -> set:
    """The keys cli.py and config.py name as string literals, outside the
    registry itself, with the params.* keys that config.py reads through
    _PARAM_KEYS."""
    from iswaves.config import _PARAM_KEYS

    read = {f"params.{k}" for k in _PARAM_KEYS}
    for name in ("cli.py", "config.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        registry = [
            node.value for node in tree.body
            if isinstance(node, ast.AnnAssign)
            and getattr(node.target, "id", None) == "KEY_REGISTRY"
        ]
        skip = {id(key) for d in registry for key in d.keys}
        read |= {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in skip
        }
    return read


def test_every_config_key_is_read():
    # a key the registry accepts and no command reads would be taken and
    # silently ignored
    from iswaves.config import KEY_REGISTRY

    unread = sorted(set(KEY_REGISTRY) - _config_keys_read())
    assert unread == [], f"config keys cli.py and config.py never read: {unread}"


def _caught(fn) -> set:
    """The names a function's except clauses catch."""
    caught = set()
    for handler in ast.walk(fn):
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught |= {t.id for t in types if isinstance(t, ast.Name)}
    return caught


def test_every_failure_has_one_path_to_an_exit_code():
    # the package raises no bare RuntimeError or Exception, and each
    # exception class it defines is caught in cli.main itself, which maps it
    # to an exit code: no command catches one to make its own report
    bare, defined = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) in ("RuntimeError", "Exception"):
                    bare.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and any(
                getattr(b, "id", "").endswith(("Error", "Exception")) for b in node.bases
            ):
                defined.add(node.name)
    assert bare == [], f"bare RuntimeError or Exception raised at {bare}"
    cli = {
        fn.name: fn for fn in ast.parse((PACKAGE / "cli.py").read_text()).body
        if isinstance(fn, ast.FunctionDef)
    }
    in_main = _caught(cli["main"])
    assert {"ConfigError", "ConvergenceError", "InadmissibleParameterError"} <= in_main
    assert defined - in_main == set(), defined
