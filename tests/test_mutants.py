"""The mutator of tests/mutants.py on a toy module; the slow test runs stay out."""

import mutants

TOY = '''"""A toy module."""


def other(a):
    return a + 1


class Box:
    @staticmethod
    def toy(a, b):
        # a comment the rewrite drops
        if a < b and not a == 0:
            return a + 1
        return b * 2
'''


def _run(source, *args):
    space = {}
    exec(compile(source, "<toy>", "exec"), space)
    return space["Box"].toy(*args), space["other"](*args[:1])


def test_mutator_changes_one_spot_of_the_named_function_only():
    found = mutants.mutants(TOY, "Box.toy")
    assert [(line, text) for line, text, _ in found] == [
        (10, "unmutated"), (12, "and -> or"), (12, "< -> <="), (12, "dropped not"),
        (12, "== -> !="), (12, "0 -> 1"), (13, "+ -> -"), (13, "1 -> 2"), (14, "* -> //"),
        (14, "2 -> 3")]
    sources = [source for _, _, source in found]
    assert len(set(sources)) == len(sources)
    # the module around the function is kept as it was, to the character
    head = TOY[:TOY.index("    @staticmethod")]
    assert all(source.startswith(head) for source in sources)
    assert "# a comment" not in sources[0] and "@staticmethod" in sources[0]
    # each mutant compiles, and on some input answers differently from the original
    inputs = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    want = [_run(TOY, *args) for args in inputs]
    assert [_run(sources[0], *args) for args in inputs] == want
    for source in sources[1:]:
        assert [_run(source, *args) for args in inputs] != want


def test_mutator_finds_top_level_functions_and_refuses_unknown_names():
    found = mutants.mutants(TOY, "other")
    assert [text for _, text, _ in found] == ["unmutated", "+ -> -", "1 -> 2"]
    try:
        mutants.mutants(TOY, "missing")
    except SystemExit as exc:
        assert "missing" in str(exc)
    else:
        raise AssertionError("an unknown name must be refused")
