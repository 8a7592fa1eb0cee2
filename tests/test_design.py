"""Design guards: nothing in ``src/`` that only tests reach, no module
constant that nothing reads, every entry point the benchmark's tracer
wraps present in ``src/``, one spec per instruction shared by the
assembler and the machine, every data file of the package shipped with
it, and an import path without ``dataclasses`` or ``inspect``."""

import ast
import collections
import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

from sapphire import isa
from sapphire.machine import Machine

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sapphire"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bound(function):
    """Names a function binds itself: its arguments and its assignment
    targets, outside the functions nested in it."""
    names = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        if not isinstance(node, FUNCTIONS):
            todo += ast.iter_child_nodes(node)
    return names


def _names(tree, bound=frozenset()):
    """Every name a tree refers to: names loaded where no enclosing function
    binds them, attributes, and the parts of string constants that are
    identifiers or dotted names (as ``"Class.method"`` entries and name
    tables are).  A local variable that shares a definition's name is not a
    reference to it."""
    if isinstance(tree, FUNCTIONS):
        bound = bound | _bound(tree)
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            yield from node.value.split(".")
        yield from _names(node, bound)


def test_no_test_only_code_in_src():
    """Every function and class of the package is referred to from src/,
    perfbench/ or pyproject.toml outside its own definition."""
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "perfbench") for path in (ROOT / top).rglob("*.py")}
    refs = collections.Counter(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for tree in trees.values():
        refs.update(_names(tree))
    unused = [f"{path.name}:{node.name}"
              for path, tree in trees.items() if PACKAGE in path.parents
              for node in ast.walk(tree)
              if isinstance(node, DEFS) and not node.name.startswith("__")
              and refs[node.name] <= sum(name == node.name for name in _names(node))]
    assert unused == []


def test_no_unused_module_constants_in_src():
    """Every module-level name the package assigns is loaded in its own
    module, or reached as an attribute or by ``from ... import`` from
    src/ or perfbench/."""
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "perfbench") for path in (ROOT / top).rglob("*.py")}
    reached = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reached.update(alias.name for alias in node.names)
    unused = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                unused += [f"{path.stem}.{node.id}" for target in targets
                           for node in ast.walk(target)
                           if isinstance(node, ast.Name) and not node.id.startswith("__")
                           and node.id not in loaded | reached]
    assert unused == []


def test_perfbench_entry_points_exist():
    """Every LAYERS entry of perfbench/tracer.py resolves the way the
    tracer wraps it, through ``vars(owner)[attr]``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, entries in tracer.LAYERS.values():
        for entry in entries:
            owner_name, _, attr = entry.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if attr not in getattr(owner, "__dict__", ()):
                missing.append(f"{module.__name__}.{entry}")
    assert missing == []


def test_every_instruction_form_has_a_handler():
    """One table entry per op; only the ops whose cycles depend on the
    data (the samplers and two sha3 ops) lack a fixed cycle rule."""
    assert {f.op for f in isa.FORMS} == set(Machine._OPS)
    by_data = {op for op, (_handler, _units, rule) in Machine._OPS.items()
               if rule is None}
    samplers = {f.op for f in isa.FORMS if "_sample" in f.op}
    assert len(samplers) == 7
    assert by_data == samplers | {"sha3_absorb", "sha3_digest"}


def test_package_data_ships_every_data_file():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["sapphire"]
    files = [path.relative_to(PACKAGE) for sub in ("data", "programs")
             for path in (PACKAGE / sub).iterdir()]
    assert files
    assert [f for f in files if not any(f.match(g) for g in globs)] == []


def test_import_loads_neither_dataclasses_nor_inspect():
    """Every fresh process pays for what the package imports; these two
    (with ast, dis and tokenize behind inspect) once cost a large share."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import sapphire, sapphire.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
