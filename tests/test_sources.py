"""Checks over the package source itself."""

import ast
from pathlib import Path

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
