"""The demos import only names the package still defines."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _iswaves_imports(path):
    """(module, name) for every name a demo imports from the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "iswaves":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "iswaves":
                    yield alias.name, None


def test_demos_exist():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imported = list(_iswaves_imports(path))
    assert imported, f"{path.name} imports nothing from iswaves"
    for module, name in imported:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no {name!r}"
