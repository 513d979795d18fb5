"""Export lists name only what their modules define.

The package is located without being imported, so a stale import in
``kbb/__init__.py`` fails one test here with the missing names rather than
only the import of every test module.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

PACKAGE_DIR = Path(importlib.util.find_spec("kbb").origin).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))


def top_level_names(path: Path) -> set:
    """Names a module binds at top level: defs, classes, assignments, imports."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"kbb.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_are_defined():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            defined = top_level_names(PACKAGE_DIR / f"{node.module}.py")
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in defined]
    assert missing == []
