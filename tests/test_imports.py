"""Every name a module under src/orituran imports is referenced in it,
every private helper it defines is referenced somewhere in the package, every
public name it defines is read by the program or documented in the README,
text becomes an int in one reader only, no module starts a process, one child
rule keeps the enumerators' and the oracle's children, and a cold CLI start
loads only the modules its subcommand runs."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orituran

SRC = Path(orituran.__file__).parent
REPO = Path(__file__).resolve().parents[1]

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


def _public_definitions(tree: ast.Module):
    """Each public top-level name of tree, and each public method or property
    of its top-level classes, as (qualified name, name)."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from ((t.id, t.id) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.target.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{member.name}", member.name


def test_no_dead_public_names():
    """Every public name src/orituran defines is read in some module of the
    package or of bench/, or named in backticks in README.md.  The check goes
    by name, not by binding: canon.is_isomorphic, say, would pass because
    bench/check.py reads nx.is_isomorphic."""
    programs = sorted(SRC.glob("*.py")) + sorted((REPO / "bench").glob("*.py"))
    used = set().union(*(_uses(ast.parse(path.read_text(), filename=str(path)))
                         for path in programs))
    spans = re.findall(r"`([^`\n]+)`", (REPO / "README.md").read_text())
    known = used | set(re.findall(r"[A-Za-z_]\w*", " ".join(spans)))
    dead = [f"{path.stem}.{qualified}" for path in sorted(SRC.glob("*.py"))
            for qualified, name in _public_definitions(_module_tree(path.stem))
            if not name.startswith("_") and name not in known]
    assert dead == []


def _int_calls(node: ast.AST, owner: str = ""):
    """(innermost enclosing function, source) of each one-argument int() call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _int_calls(child, child.name)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "int" and len(child.args) + len(child.keywords) == 1):
            yield owner, ast.unparse(child)
        yield from _int_calls(child, owner)


def test_text_becomes_an_int_only_in_the_numeral_reader():
    # a second, lenient reader would take signs, spaces, underscores and other
    # scripts' digits again; int(self.injective) turns a bool, not text, into 0 or 1
    stray = [f"{path.stem}.{owner}: {call}" for path in sorted(SRC.glob("*.py"))
             for owner, call in _int_calls(ast.parse(path.read_text(), filename=str(path)))
             if (path.stem, owner) != ("graphs", "_natural")
             and (path.stem, call) != ("homomorphism", "int(self.injective)")]
    assert stray == []


def test_cli_options_read_integers_through_the_numeral_reader():
    typed_int = [node.lineno for node in ast.walk(_module_tree("cli"))
                 if isinstance(node, ast.keyword) and node.arg == "type"
                 and isinstance(node.value, ast.Name) and node.value.id == "int"]
    assert typed_int == []


def _imported_modules(tree: ast.Module, eager: bool = False):
    """The modules tree imports, package modules as orituran.name; with eager,
    only those imported at import time, outside any function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if eager and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            yield from (f"orituran.{name}" for name in names)
        stack.extend(ast.iter_child_nodes(node))


def _module_tree(stem: str) -> ast.Module:
    path = SRC / f"{stem}.py"
    return ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize on every cold start
    found = [f"{path.stem}: {m}" for path in sorted(SRC.glob("*.py"))
             for m in _imported_modules(_module_tree(path.stem))
             if m.split(".")[0] == "dataclasses"]
    assert found == []


def test_no_module_starts_processes():
    # the oracle is one serial search, so its witnesses and node counts cannot
    # depend on how its work is split
    banned = {"multiprocessing", "concurrent", "subprocess", "marshal"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _module_tree(path.stem)
        found += [f"{path.stem}: import {m}" for m in _imported_modules(tree)
                  if m.split(".")[0] in banned]
        found += [f"{path.stem}: {ast.unparse(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "fork"
                  or isinstance(node, ast.ImportFrom) and node.module == "os"
                  and any(alias.name == "fork" for alias in node.names)]
    assert found == []


def _readers(tree: ast.Module, names: set[str]):
    """(top-level definition or "<module>", name) for each read of one of
    names, as a bare name or an attribute."""
    for stmt in tree.body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in names:
                yield owner, node.id
            elif isinstance(node, ast.Attribute) and node.attr in names:
                yield owner, node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from ((owner, a.name) for a in node.names if a.name in names)


def test_one_child_rule():
    # the enumerators and the exo oracle keep a child by accept_child alone;
    # the code search otherwise serves canonical codes and the orbits of F
    allowed = {("canon", "_min_digits"), ("canon", "_last_pinned_digits"),
               ("canon", "accept_child")}
    searches = [f"{path.stem}.{owner}" for path in sorted(SRC.glob("*.py"))
                for owner, _ in _readers(_module_tree(path.stem), {"_search"})
                if (path.stem, owner) not in allowed]
    assert searches == []
    assert list(_readers(_module_tree("extremal"), {"_search", "_least_invariant"})) == []


def test_cli_imports_search_modules_in_its_handlers():
    # a start compiles every module it loads, so cli loads them where it calls them
    lazy = {"orituran.canon", "orituran.homomorphism", "orituran.containment",
            "orituran.extremal", "orituran.patterns", "orituran.regularize", "json"}
    assert lazy & set(_imported_modules(_module_tree("cli"), eager=True)) == set()


def test_regularize_depends_only_on_graphs():
    # an embed start and a bench embed pass then compile no other search module
    package = {m for m in _imported_modules(_module_tree("regularize")) if m.startswith("orituran")}
    assert package == {"orituran.graphs"}


def test_patterns_depends_only_on_graphs():
    # parsing a token or building a construction compiles no search module;
    # only a turan blow-up oriented against a pattern needs compressibility
    tree = _module_tree("patterns")
    eager = {m for m in _imported_modules(tree, eager=True) if m.startswith("orituran")}
    assert eager == {"orituran.graphs"}
    package = {m for m in _imported_modules(tree) if m.startswith("orituran")}
    assert package == {"orituran.graphs", "orituran.homomorphism"}


def test_moved_names_keep_their_old_import_paths():
    from orituran import extremal, graphs, homomorphism, patterns

    assert extremal.PatternSpec is patterns.PatternSpec
    assert extremal.build_construction is patterns.build_construction
    assert extremal.turan_edges is patterns.turan_edges
    assert homomorphism.EmptyPatternError is graphs.EmptyPatternError


def _modules_after(code: str, cwd=None) -> set[str]:
    """The modules loaded once code has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code += "; print(); print(' '.join(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60, cwd=cwd)
    return set(run.stdout.splitlines()[-1].split())


def test_cli_cold_start_loads_neither_dataclasses_nor_inspect():
    # compared with a bare interpreter, because site may preload modules
    bare = _modules_after("import sys")
    loaded = _modules_after(
        "import sys; from orituran import cli; "
        "cli.main(['construct', 'turan', '--n', '20', '--r', '3'])"
    ) - bare
    assert "dataclasses" not in loaded and "inspect" not in loaded
    # only embed loads regularize
    assert "orituran.regularize" not in loaded


START = {"orituran", "orituran.cli", "orituran.graphs"}
PATTERNS = START | {"orituran.patterns"}
# what containment loads; extremal loads it too
SEARCH = {"orituran.canon", "orituran.homomorphism", "orituran.containment"}


@pytest.fixture(scope="module")
def bare_modules():
    return _modules_after("import sys")


@pytest.mark.parametrize("argv, modules", [
    (["construct", "turan", "--n", "20", "--r", "3"], PATTERNS),
    (["construct", "turan", "--n", "14", "--r", "3", "--pattern", "oc4"],
     PATTERNS | {"orituran.canon", "orituran.homomorphism"}),
    (["exo", "--n", "4", "--pattern", "dpath3"], PATTERNS | SEARCH | {"orituran.extremal"}),
    (["exo", "--n", "4", "--pattern", "dpath3", "--json"],
     PATTERNS | SEARCH | {"orituran.extremal", "json"}),
    (["check-hypothesis", "all-tournaments", "--k", "4", "--pattern", "dpath3"],
     PATTERNS | SEARCH),
    (["compress", "p3.og"], START | {"orituran.canon", "orituran.homomorphism"}),
    (["compress", "p3.og", "--json"], START | {"orituran.canon", "orituran.homomorphism", "json"}),
    (["embed", "--host", "p3.og", "--pattern", "dpath2", "--r", "2", "--seed", "1"],
     PATTERNS | {"orituran.regularize", "json"}),
    # bad input is refused before any search module loads
    (["exo", "--n", "4", "--pattern", "dpath1"], PATTERNS),
    (["embed", "--host", "p3.og", "--pattern", "dpath3", "--r", "2", "--seed", "1"], PATTERNS),
    (["check-hypothesis", "all-orientations", "--host", "missing.og", "--pattern", "dpath3"],
     PATTERNS),
    # usage errors load no search module
    (["exo", "--n", "3", "--pattern", "dpath3", "--jobs", "0"], START),
    (["exo", "--n", "5"], START),
    (["check-hypothesis", "all-tournaments", "--pattern", "dpath3"], START),
    (["check-hypothesis", "all-tournaments", "--k", "0", "--pattern", "dpath3"], START),
    (["check-hypothesis", "all-tournaments", "--k", "3", "--pattern", "dpath3",
      "--host", "p3.og"], START),
    (["embed", "--host", "p3.og", "--pattern", "dpath2", "--r", "0", "--seed", "1"], START),
    (["compress", "missing.og"], START),
])
def test_each_start_loads_only_what_its_subcommand_runs(tmp_path, bare_modules, argv, modules):
    (tmp_path / "p3.og").write_text("3\n0 1\n1 2\n")
    loaded = _modules_after(f"import sys; from orituran import cli; cli.main({argv!r})", tmp_path)
    assert {m for m in loaded - bare_modules if m.startswith("orituran") or m == "json"} == modules
