"""The public API has callers: every public module-level function and class
of the package is used by the package itself, a demo or the benchmark, and
every defaulted parameter of a public function, and every defaulted field of
a public dataclass, is passed by one of them, and not by all of them as the
same literal.

A name that only tests call is a second implementation kept alive by its
own test; it belongs in the tests, as a reference, or nowhere.  So does an
option that only tests pass, or one that every caller sets to the same
literal: its value belongs in the function.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iswaves"
# re-exporting a name in __init__ is not a use of it
CALLERS = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + sorted(
    p for d in ("demos", "perfbench") for p in (ROOT / d).rglob("*.py")
)

ALLOWED = {
    # the closed-form f(x) whose minimum compute_f_min returns; criterion 1
    # scans it as the independent reference for f_min
    "symbol_f",
}


OPTIONS_ALLOWED = {
    # the truncation-bound test varies the number of series terms to show
    # the bound shrinking; every caller takes the default
    "kernel_K3_series.n_terms",
}


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


def _options():
    """(function.parameter, position or None) of every defaulted parameter
    of a public top-level function, None for a keyword-only one, and
    (Class.field, position) of every defaulted field of a public dataclass."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out += _dataclass_options(node) if _is_dataclass(node) else []
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                out += [(f"{node.name}.{x.arg}", i) for i, x in enumerate(positional) if i >= first]
                out += [
                    (f"{node.name}.{x.arg}", None)
                    for x, default in zip(a.kwonlyargs, a.kw_defaults)
                    if default is not None
                ]
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
    for option, position in _options():
        name, param = option.split(".")
        got = set().union(*calls.get(name, ()))
        if not ({"*", param, position} & got) and option not in OPTIONS_ALLOWED:
            out.append(option)
    return sorted(out)


def _constant_options() -> list:
    """Options that every call passes, each time as the same literal."""
    calls = _calls()
    out = []
    for option, position in _options():
        name, param = option.split(".")
        values = [call.get(param, call.get(position)) for call in calls.get(name, ())]
        if (
            values
            and all(isinstance(v, ast.Constant) for v in values)
            and len({repr(v.value) for v in values}) == 1
        ):
            out.append(option)
    return sorted(out)


def test_every_option_is_passed_outside_the_tests():
    unpassed = _unpassed_options()
    assert unpassed == [], (
        f"defaulted parameters or fields no caller in src/, demos/ or perfbench/ passes: "
        f"{unpassed}"
    )


def test_option_allowlist_is_current():
    assert OPTIONS_ALLOWED <= {option for option, _ in _options()}


def test_no_option_is_always_passed_as_one_constant():
    # an option every caller sets to the same value is that value
    constant = _constant_options()
    assert constant == [], (
        f"defaulted parameters or fields every caller passes as one literal: {constant}"
    )
