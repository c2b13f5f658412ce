"""One vertex-range check: every vertex id the package takes is checked by
``configs.check_vertices``, so no module keeps its own ``0 <= v < n``."""

import ast
from pathlib import Path

import pebbling

SOURCES = sorted(Path(pebbling.__file__).parent.glob("*.py"))


def _range_checks(tree: ast.AST) -> list[int]:
    """Lines holding a ``0 <= x < y`` comparison outside check_vertices."""
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "check_vertices"
        for node in ast.walk(fn)
    }
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and id(node) not in inside
        and isinstance(node.left, ast.Constant)
        and node.left.value == 0
        and [type(op) for op in node.ops] == [ast.LtE, ast.Lt]
    })


def test_vertex_ranges_are_checked_in_one_place():
    assert len(SOURCES) > 1
    found = {
        path.name: lines
        for path in SOURCES
        if (lines := _range_checks(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_the_check_sees_a_range_check():
    inline = "def f(v, n):\n    if not 0 <= v < n:\n        raise ValueError(v)\n"
    both = "def g(u, v, n):\n    return 0 <= u < n and 0 <= v < n\n"
    allowed = "def check_vertices(n, vs, what):\n    return all(0 <= v < n for v in vs)\n"
    other_forms = "def h(t, x, r):\n    return 0 <= t <= x or 0 < x < r or 1 <= x < r\n"
    assert _range_checks(ast.parse(inline)) == [2]
    assert _range_checks(ast.parse(both)) == [2]
    assert _range_checks(ast.parse(allowed)) == []
    assert _range_checks(ast.parse(other_forms)) == []
