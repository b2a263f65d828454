"""Every public top-level name and public method in the package is used
by the package.

A helper only the tests call is dead weight in src/: the brute-force
oracles the tests compare against live in tests/oracles.py, and
TEST_ORACLES names the one still kept in src/.  Only a load of the name
counts as a use, so an import or re-export alone does not; a plain
method counts only where it is called.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import sl2lab

# The other oracles live in tests/oracles.py.  stabilizer_fast builds
# R(E) as a set, which no campaign needs; the oracle tests compare it
# with stabilizer_brute, and it stays in src/, with subgroup_closure,
# only while the benchmark's layer trace wraps it there by name.
TEST_ORACLES = {"stabilizer_fast"}


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


# DetRng.bits draws the random masks of several tests; nothing in src/
# needs it, and it stays as test support.
TEST_SUPPORT_METHODS = {"DetRng.bits"}


def _attribute_loads(node) -> Counter:
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def _method_calls(node) -> Counter:
    """Calls of the form x.name(...), by name."""
    return Counter(
        n.func.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    )


def _property_reads(tree) -> Counter:
    """Loads of x.name, less those inside a class that assigns
    self.name: there a load may read that class's own attribute."""
    reads = _attribute_loads(tree)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        inside = _attribute_loads(cls)
        for name in {
            n.attr
            for n in ast.walk(cls)
            if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Store)
            and getattr(n.value, "id", None) == "self"
        }:
            reads[name] -= inside[name]
    return reads


def _is_property(fn) -> bool:
    return any(
        getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
        for d in fn.decorator_list
    )


def test_every_public_method_is_used_in_src():
    # A plain method counts as used only where src/ calls it, x.name(...),
    # outside its own body; a property is read, not called, so a load of
    # its name counts, except inside a class that assigns self.<name>
    # (_Acc.merge reads part.violations, _Acc's own counter).  Matching is
    # by name alone, so a call of another class's method with the same
    # name still hides a dead one.
    src = Path(sl2lab.__file__).resolve().parent
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]
    loads = sum((_property_reads(tree) for _, tree in trees), Counter())
    calls = sum((_method_calls(tree) for _, tree in trees), Counter())
    unused = []
    for module, tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if f"{cls.name}.{fn.name}" in TEST_SUPPORT_METHODS:
                    continue
                if _is_property(fn):
                    uses, own = loads, _attribute_loads
                else:
                    uses, own = calls, _method_calls
                if uses[fn.name] == own(fn)[fn.name]:
                    unused.append(f"{module}: {cls.name}.{fn.name}")
    assert not unused, "public methods nothing in src/ uses: " + ", ".join(unused)


def test_oracles_stay_off_the_kernels():
    # an oracle that imported a private kernel would check that kernel
    # against itself
    path = Path(__file__).resolve().parent / "oracles.py"
    private = sorted(
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sl2lab")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert not private, "tests/oracles.py imports private names: " + ", ".join(private)


def test_only_gf_touches_the_field_memo():
    # FieldCtx.memo is the one reader and writer of a field's derived
    # tables; any other module reaching into ctx._cache would bypass it
    src = Path(sl2lab.__file__).resolve().parent
    touching = sorted(
        path.name
        for path in src.glob("*.py")
        if path.name != "gf.py"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "_cache"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert not touching, "modules that touch ctx._cache: " + ", ".join(touching)


INSTALL_TRACER = """
import sys
sys.path.insert(0, sys.argv[1])
import sl2lab.harness
import layers
layers.install(layers.Tracer())
"""


def test_benchmark_layer_trace_finds_every_name():
    # perfbench/layers.py wraps program names given as strings, so a
    # rename would otherwise surface only in a traced benchmark run; -B
    # keeps the import from writing bytecode into perfbench/
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    env = dict(os.environ, PYTHONPATH=str(Path(sl2lab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL_TRACER, str(perfbench)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert "untraced:" not in done.stderr, done.stderr
    assert done.returncode == 0, done.stderr
