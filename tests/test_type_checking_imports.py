"""Every type-only import under ``src/repro`` resolves.

Imports inside ``if TYPE_CHECKING:`` blocks never run, so a module
that is renamed or deleted leaves them silently stale.  This test
parses each source file, collects the import statements guarded by
``TYPE_CHECKING`` and checks that each module imports and each name
exists in it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def type_only_imports() -> list[tuple[Path, ast.Import | ast.ImportFrom]]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                for statement in node.body:
                    if isinstance(statement, (ast.Import, ast.ImportFrom)):
                        found.append((path, statement))
    return found


def _unresolved(path: Path, statement: ast.Import | ast.ImportFrom) -> list[str]:
    where = f"{path.relative_to(SRC.parent)}:{statement.lineno}"
    if isinstance(statement, ast.Import):
        missing = []
        for alias in statement.names:
            try:
                importlib.import_module(alias.name)
            except ImportError as exc:
                missing.append(f"{where}: import {alias.name} ({exc})")
        return missing
    module = statement.module
    try:
        target = importlib.import_module(module)
    except ImportError as exc:
        return [f"{where}: from {module} ({exc})"]
    missing = []
    for alias in statement.names:
        if hasattr(target, alias.name):
            continue
        try:
            importlib.import_module(f"{module}.{alias.name}")
        except ImportError:
            missing.append(f"{where}: {module} has no {alias.name}")
    return missing


def test_type_only_imports_resolve():
    statements = type_only_imports()
    assert statements, "no TYPE_CHECKING imports found; is SRC right?"
    stale = [
        problem
        for path, statement in statements
        for problem in _unresolved(path, statement)
    ]
    assert not stale, "stale type-only imports:\n" + "\n".join(stale)
