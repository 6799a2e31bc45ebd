"""Every name a module under src/orituran imports is referenced in it,
every private helper it defines is referenced somewhere in the package, and
a cold CLI start loads no module the package does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import orituran

SRC = Path(orituran.__file__).parent

# bench/layers.py rebinds this name in extremal to trace it
ALLOWED = {("extremal", "contains_copy_through")}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a string annotation such as "PatternSpec | OrientedGraph"
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in sorted(_imported(tree) - _referenced(tree)):
            if (path.stem, name) not in ALLOWED:
                unused.append(f"{path.stem}: {name}")
    assert unused == []


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _uses(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported anywhere in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_no_dead_private_helpers():
    """Every top-level _name a module defines is read somewhere in the package."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    used = set().union(*map(_uses, trees))
    dead = {name for tree in trees for name in _private_definitions(tree)} - used
    assert sorted(dead) == []


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize on every cold start
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.stem}: {m}" for m in modules if m.split(".")[0] == "dataclasses"]
    assert found == []


def _modules_after(code: str) -> set[str]:
    """The modules loaded once code has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code += "; print(); print(' '.join(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return set(run.stdout.splitlines()[-1].split())


def test_cli_cold_start_loads_neither_dataclasses_nor_inspect():
    # compared with a bare interpreter, because site may preload modules
    bare = _modules_after("import sys")
    loaded = _modules_after(
        "import sys; from orituran import cli; "
        "cli.main(['construct', 'turan', '--n', '20', '--r', '3'])"
    ) - bare
    assert "dataclasses" not in loaded and "inspect" not in loaded
    # an eager import: a process that forks after importing cli shares
    # regularize with its children instead of compiling it in each
    assert "orituran.regularize" in loaded
