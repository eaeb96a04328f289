"""Every public top-level name in ``src/scrollcalc`` is used by the package.

A name counts as used when some other top-level statement of some module
refers to it, by name, attribute or import; its own definition does not
count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scrollcalc"


def _defined(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced(stmt):
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unused_public_names():
    stmts = [
        stmt
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    refs = [set(_referenced(stmt)) for stmt in stmts]
    return {
        name
        for i, stmt in enumerate(stmts)
        for name in _defined(stmt)
        if not name.startswith("_")
        and not any(name in used for j, used in enumerate(refs) if j != i)
    }


def test_no_dead_public_helpers():
    assert unused_public_names() == set()
