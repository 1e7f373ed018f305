"""Checks over the package source itself."""

import ast
import re
from pathlib import Path

import pytest

import combinlab


def test_no_module_sets_the_recursion_limit():
    # Deep recursion is not an option on the supported interpreters, so no
    # module may raise the global recursion limit to get it.
    offenders = []
    for path in sorted(Path(combinlab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "setrecursionlimit":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_imports_dataclasses():
    # dataclasses (with inspect) costs every command that imports the module
    # a third of its start; records are plain __slots__ classes instead.
    offenders = []
    for path in sorted(Path(combinlab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# Functions that call themselves by name, as module.qualname.  The list only
# shrinks: new code walks with an explicit stack, and a function that becomes
# a loop leaves the list in the same change.
RECURSIVE = {
    "sorting._merge_insertion",
    "tournament._select_partition",
}


def self_calling_in(tree, module):
    """module.qualname of each function in `tree` that calls its own bare
    name.  A method body does not see its class's names, so a bare-name
    call in a function defined directly in a class body calls a module
    function, and is not counted."""
    found = set()
    stack = [(tree, module, False)]
    while stack:
        node, prefix, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, prefix, in_class))
                continue
            qualname = f"{prefix}.{child.name}"
            is_class = isinstance(child, ast.ClassDef)
            stack.append((child, qualname, is_class))
            if not is_class and not in_class and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == child.name
                for call in ast.walk(child)
            ):
                found.add(qualname)
    return found


def self_calling_functions():
    found = set()
    for path in sorted(Path(combinlab.__file__).parent.rglob("*.py")):
        found |= self_calling_in(ast.parse(path.read_text(), str(path)), path.stem)
    return found


SELF_CALLS = """
def walk(n):
    return walk(n - 1) if n else 0


def outer(n):
    def inner(k):
        return inner(k - 1) if k else 0

    return inner(n)


def tour_length(matrix, tour):
    return len(tour)


class Instance:
    def tour_length(self, tour):
        return tour_length(self.matrix, tour)
"""


def test_recursion_check_resolves_method_names_by_scope():
    # A module function and a nested function that call themselves are
    # found; a method calling the module function of its own name is not.
    assert self_calling_in(ast.parse(SELF_CALLS), "m") == {"m.walk", "m.outer.inner"}


def test_recursion_only_in_listed_functions():
    assert self_calling_functions() == RECURSIVE


# The graph classes; an instance is only ever made by its checking constructor.
GRAPH_CLASSES = {"Graph", "Digraph", "WeightedGraph", "WeightedDigraph"}


def unchecked_graph_builds():
    """module:line of each `__new__` on a graph class, as C.__new__ or
    object.__new__(C), and of each name `_trusted`."""
    found = set()
    for path in sorted(Path(combinlab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if named == "_trusted":
                found.add(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__":
                classes = [node.func.value, *node.args[:1]]
                if any(getattr(c, "id", None) in GRAPH_CLASSES for c in classes):
                    found.add(f"{path.stem}:{node.lineno}")
    return found


def test_graphs_are_built_only_by_their_constructors():
    assert unchecked_graph_builds() == set()


def copied_name(stmt, self_name):
    """x if the statement is `<self_name>.x = x`, else None."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.value, ast.Name):
        target = stmt.targets[0]
        if (isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == self_name
                and target.attr == stmt.value.id):
            return target.attr
    return None


def copying_inits(folder=Path(combinlab.__file__).parent):
    """module.Class of each class whose `__init__` only copies each of its
    parameters, in order, to `self.<same name>`: a record, which
    `intmath._Record` builds from the class's `__slots__` instead."""
    found = set()
    for path in sorted(folder.rglob("*.py")):
        classes = [c for c in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(c, ast.ClassDef)]
        for cls in classes:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    args = fn.args
                    self_name, *params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                    if [copied_name(stmt, self_name) for stmt in fn.body] == params:
                        found.add(f"{path.stem}.{cls.name}")
    return found


COPYING_INIT = """
class Pair:
    def __init__(self, a, b):
        self.a = a
        self.b = b  # a comment is not a statement

class Checked:
    def __init__(self, a, b):
        self.a = a
        self.b = int(b)

class Extra:
    def __init__(self, a):
        self.a = a
        self.seen = None
"""


def test_copying_init_check_finds_only_pure_copies(tmp_path):
    (tmp_path / "mod.py").write_text(COPYING_INIT)
    assert copying_inits(tmp_path) == {"mod.Pair"}


def test_records_build_from_their_slots():
    assert copying_inits() == set()


ROOT = Path(__file__).resolve().parents[1]


def floor_version():
    """(major, minor) of `requires-python = ">=X.Y"` in pyproject.toml,
    read without tomllib, which the 3.10 floor lacks."""
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(),
                      re.MULTILINE)
    return int(found[1]), int(found[2])


def test_every_module_parses_at_the_floor_version():
    # A newer interpreter parses syntax the floor lacks, such as 3.11's
    # `except*`, which would not import there.  The package, its tests, the
    # benchmark and the tools all run on the floor.
    floor = floor_version()
    for folder in ("src", "tests", "perfbench", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            ast.parse(path.read_text(), str(path), feature_version=floor)


def test_the_floor_check_refuses_newer_syntax():
    assert floor_version() == (3, 10)  # `except*` came in 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor_version())
