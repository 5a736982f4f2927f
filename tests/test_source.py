"""Checks on the library source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "addalg"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so runtime checks must be raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and found == []


# the Fraction views of the one integer elimination path, kept for the tests
# and the benchmark's tracer; library code eliminates in int_rref instead
FRACTION_VIEWS = {"solve", "nullspace", "rref", "det", "left_mul_matrix", "right_mul_matrix"}


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls_outside_views(node, own_views):
    """Calls to a Fraction view under node, skipping the views' own definitions."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in own_views:
        return
    if isinstance(node, ast.Call) and _called_name(node) in FRACTION_VIEWS:
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _calls_outside_views(child, own_views)


def test_library_calls_no_fraction_elimination_view():
    found = []
    for path in sorted(SRC.glob("*.py")):
        own_views = FRACTION_VIEWS if path.name in ("linalg.py", "algebra.py") else set()
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{call.lineno} {_called_name(call)}"
                  for call in _calls_outside_views(tree, own_views)]
    assert found == []


def test_fraction_view_guard_sees_calls():
    # the guard must flag a call through a module or a method, and in a nested function
    src = "def f(m):\n    def g():\n        return linalg.solve(m, v)\n    return alg.left_mul_matrix(v)\n"
    calls = list(_calls_outside_views(ast.parse(src), set()))
    assert sorted(_called_name(c) for c in calls) == ["left_mul_matrix", "solve"]
