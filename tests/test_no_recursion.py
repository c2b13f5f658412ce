"""No function in the package calls itself: deep inputs must not end in a
RecursionError, so every search keeps an explicit stack."""

import ast
from pathlib import Path

import pebbling

SOURCES = sorted(Path(pebbling.__file__).parent.glob("*.py"))


def _self_calls(tree: ast.AST) -> list[str]:
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == fn.name:
                found.append(f"{fn.name} (line {node.lineno})")
    return found


def test_no_function_calls_itself():
    assert len(SOURCES) > 1
    found = {
        path.name: calls
        for path in SOURCES
        if (calls := _self_calls(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_the_check_sees_recursion():
    direct = "def f(n):\n    return f(n - 1) if n else 0\n"
    method = "class A:\n    def g(self):\n        return self.g()\n"
    nested = "def outer():\n    def inner(k):\n        return inner(k)\n    return inner\n"
    assert _self_calls(ast.parse(direct)) == ["f (line 2)"]
    assert _self_calls(ast.parse(method)) == ["g (line 3)"]
    assert _self_calls(ast.parse("def h():\n    return 1\n")) == []
    assert _self_calls(ast.parse(nested)) == ["inner (line 3)"]
