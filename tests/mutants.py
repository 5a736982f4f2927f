"""A mutation check for one library function, with only the standard library.

Usage (from anywhere; the paths are read off this file):
    python3 tests/mutants.py MODULE:FUNC [TEST ...]

FUNC is a function of src/addalg/MODULE.py, or Class.method.  Each mutant
changes one spot in FUNC, nested functions included:
  - comparisons: < <-> <=, > <-> >=, == <-> !=, in <-> not in, is <-> is not;
  - arithmetic: + <-> -, * <-> //;
  - logic: and <-> or, and a dropped `not`;
  - integer constants: +1.
The checkout is copied to a temporary directory once, and each mutant is
written into that copy only; the TESTs (default: all of tests/) then run
there with `pytest -x`.  A mutant whose tests pass survives.  The unmutated
function, rewritten the same way, must pass first, or nothing is reported.

Prints one line per surviving mutant, then the kill count.  It takes
minutes, so it is not part of the tier-1 suite or CI.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.And: "and", ast.Or: "or",
}


def find_function(tree, qualname):
    """The def node of qualname (name or Class.name) at the top of tree."""
    node = tree
    for part in qualname.split("."):
        node = next((child for child in node.body
                     if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and child.name == part), None)
        if node is None:
            raise SystemExit(f"no definition {qualname!r}")
    return node


def _sites(func):
    """(node, field, index, replacement, description) for every mutant of
    func, in source order."""
    nodes = sorted(ast.walk(func), key=lambda node: (getattr(node, "lineno", 0),
                                                     getattr(node, "col_offset", 0)))
    for node in nodes:
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]
                    yield node, "ops", i, new(), f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}"
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]
            yield node, "op", None, new(), f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, None, None, None, "dropped not"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, "value", None, node.value + 1, f"{node.value} -> {node.value + 1}"


class _Replace(ast.NodeTransformer):
    def __init__(self, target, replacement):
        self.target, self.replacement = target, replacement

    def visit(self, node):
        if node is self.target:
            return self.replacement
        return self.generic_visit(node)


def _splice(source, func, new_func):
    """source with the lines of func, decorators included, replaced by new_func."""
    lines = source.splitlines(keepends=True)
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    body = textwrap.indent(ast.unparse(new_func), " " * func.col_offset) + "\n"
    return "".join(lines[:start]) + body + "".join(lines[func.end_lineno:])


def mutants(source, qualname):
    """(line, description, mutated source) for each mutant of the function
    qualname in the module text source, in source order, and first the
    unmutated function rewritten the same way, described as "unmutated"."""
    func = find_function(ast.parse(source), qualname)
    out = [(func.lineno, "unmutated", _splice(source, func, func))]
    for index, (node, attr, pos, new, text) in enumerate(_sites(func)):
        mutant = copy.deepcopy(func)
        target = list(_sites(mutant))[index][0]
        if attr is None:  # a dropped not: the operand takes the node's place
            mutant = _Replace(target, target.operand).visit(mutant)
        elif pos is None:
            setattr(target, attr, new)
        else:
            getattr(target, attr)[pos] = new
        out.append((node.lineno, text, _splice(source, func, ast.fix_missing_locations(mutant))))
    return out


def _run_tests(work, tests, timeout):
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(argv, cwd=work, env=env, capture_output=True,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs the tests is caught by them


def main(argv):
    if not argv or ":" not in argv[0]:
        raise SystemExit(__doc__)
    module, qualname = argv[0].split(":", 1)
    tests = argv[1:] or ["tests"]
    rel = Path("src") / "addalg" / f"{module}.py"
    source = (ROOT / rel).read_text()
    found = mutants(source, qualname)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp) / "checkout"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        target = work / rel
        start = time.perf_counter()
        target.write_text(found[0][2])
        if not _run_tests(work, tests, None):
            raise SystemExit(f"the tests fail on the unmutated {module}:{qualname}")
        timeout = max(60.0, 10 * (time.perf_counter() - start))
        survived = 0
        for line, text, mutated in found[1:]:
            target.write_text(mutated)
            if _run_tests(work, tests, timeout):
                survived += 1
                print(f"survived: {rel}:{line} {text}", flush=True)
    print(f"{module}:{qualname}: {len(found) - 1 - survived} of {len(found) - 1} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
