"""Checks on the library source itself."""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "addalg"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so runtime checks must be raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and found == []


# the Fraction views of the one integer elimination path and of the one
# product core, kept for the tests and the benchmark's tracer; library code
# eliminates in int_rref and multiplies in mul_pairs instead
FRACTION_VIEWS = {"solve", "nullspace", "rref", "det", "left_mul_matrix", "right_mul_matrix",
                  "mul_coords"}


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


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these by name; read its list without importing it
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    missing = []
    for _, modname, attr in traced:
        owner = importlib.import_module(modname)
        *cls_name, name = attr.split(".")
        if cls_name:  # a method: looked up on its class, as the tracer's install() does
            owner = getattr(owner, cls_name[0], None)
            found = owner is not None and name in owner.__dict__
        else:
            found = hasattr(owner, name)
        if not found:
            missing.append(f"{modname}.{attr}")
    assert len(traced) > 30 and missing == []


def test_every_exported_name_resolves():
    # each name a module lists in __all__ must exist, so a deleted helper
    # cannot stay exported; importing __main__ would run the CLI
    missing = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module("addalg" if path.stem == "__init__"
                                         else f"addalg.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_references_import_no_addalg():
    # the tests' reference and the benchmark's must stay written apart from the library
    found = []
    for path in (ROOT / "tests" / "oracles.py", ROOT / "perfbench" / "ref.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "addalg"]
    assert found == []
