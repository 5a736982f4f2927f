"""Checks on the library source itself and on the CI workflow."""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "addalg"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so runtime checks must be raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and found == []


def test_poly_defines_no_division():
    # polynomials are divided in one place, the integer core's _int_divmod
    tree = ast.parse((SRC / "polynomials.py").read_text())
    poly = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Poly")
    assert not {node.name for node in poly.body if isinstance(node, ast.FunctionDef)} & {
        "__divmod__", "__floordiv__", "__mod__", "__truediv__"}


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


def _stdout_writes(node, exempt):
    """Writes to stdout under node, skipping the functions named in exempt: a
    print with no file= argument, or any use of sys.stdout."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in exempt:
        return
    if (isinstance(node, ast.Attribute) and node.attr == "stdout"
            or isinstance(node, ast.Call) and _called_name(node) == "print"
            and all(k.arg != "file" for k in node.keywords)):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _stdout_writes(child, exempt)


def test_cli_writes_stdout_only_through_finish():
    # every report goes through cli._finish, the one JSON and text writer;
    # cmd_gen prints its instance file as JSON whatever --json says
    tree = ast.parse((SRC / "cli.py").read_text())
    assert [node.lineno for node in _stdout_writes(tree, {"_finish", "cmd_gen"})] == []


def test_stdout_guard_sees_writes():
    src = ("def cmd_x(a):\n    print(a)\n    print(a, file=sys.stderr)\n"
           "    sys.stdout.write(a)\n    print(a, file=sys.stdout)\n"
           "def _finish(a):\n    print(a)\n")
    assert [node.lineno for node in _stdout_writes(ast.parse(src), {"_finish"})] == [2, 4, 5]


def _traced():
    """The tracer's (layer, module, attribute) list, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these by name
    traced = _traced()
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


def test_workflow_runs_the_offline_checks_through_ci_local():
    # tests/ci_local.py is the one copy of the golden replay, the deep-nesting
    # check and the bench-smoke loop; the workflow calls it and keeps none
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    jobs = re.split(r"^  ([\w-]+):\n", text.split("\njobs:\n", 1)[1], flags=re.M)[1:]
    steps = dict(zip(jobs[::2], jobs[1::2]))
    assert set(steps) == {"tier1", "package"}
    assert all("tests/ci_local.py" in body for body in steps.values())
    assert "perfbench/run.py" not in text
    assert "deep.json" not in text and '"[" *' not in text


# definitions no library code calls, kept on purpose: public API for paper
# results, and an argparse override (ROADMAP item 4's "Keep")
KEPT = {"e_transform", "connectivity_value", "olson_weak_certificate", "stab_correspondence_check",
        "poly_at", "bell_number", "_Parser.error", "StabCorrespondence.matches"}
# orphans whose deletion waits on their test references (ROADMAP item 4)
PENDING = set()


def _definitions(texts):
    """(defined, unreferenced): the qualified names of the functions, methods
    and classes in the module texts, and those of them that no
    Name, Attribute or import there refers to by name.  Dunder methods are
    called by the interpreter and count as referenced."""
    defined, refs = set(), set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    for text in texts:
        tree = ast.parse(text)
        walk(tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                refs.update(alias.name.rpartition(".")[2] for alias in node.names)
    unreferenced = set()
    for qual in defined:
        name = qual.rpartition(".")[2]
        if name not in refs and not (name.startswith("__") and name.endswith("__")):
            unreferenced.add(qual)
    return defined, unreferenced


def test_every_library_definition_has_a_caller():
    # a definition that only tests call is dead weight: delete it, or list it above
    defined, unreferenced = _definitions(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert unreferenced - {attr for _, _, attr in _traced()} - KEPT - PENDING == set()
    assert KEPT | PENDING <= defined  # the lists shrink when a name is deleted


def test_caller_guard_sees_orphans():
    src = ("class C:\n    def used(self): pass\n    def orphan(self): pass\n"
           "    def __len__(self): return 0\n"
           "def f():\n    def inner(): pass\n    return C().used()\n")
    defined, unreferenced = _definitions([src, "from m import f\n"])
    assert defined == {"C", "C.used", "C.orphan", "C.__len__", "f", "f.inner"}
    assert unreferenced == {"C.orphan", "f.inner"}
