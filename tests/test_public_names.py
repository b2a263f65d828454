"""Every public top-level name in the package is used by the package.

A helper only the tests call is dead weight in src/; the exceptions are
brute-force oracles that exist for the tests to compare against.  Only
a load of the name counts as a use, so an import or re-export alone
does not.
"""

import ast
from pathlib import Path

import sl2lab

TEST_ORACLES = {"transport_set", "plane_points"}


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced(stmt) -> set:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_public_name_is_used_in_src():
    src = Path(sl2lab.__file__).resolve().parent
    stmts = [
        (path.name, stmt)
        for path in sorted(src.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    refs = [_referenced(stmt) for _, stmt in stmts]
    unused = []
    for i, (module, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if name.startswith("_") or name in TEST_ORACLES:
                continue
            if not any(name in r for j, r in enumerate(refs) if j != i):
                unused.append(f"{module}: {name}")
    assert not unused, "public names nothing in src/ uses: " + ", ".join(unused)
