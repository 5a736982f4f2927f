"""The integer I/O boundary of serialize against the Fraction one it replaced.

parse_rat reads the canonical forms in integers and must agree with
Fraction(str) on every input, down to the error message; basis_json
writes a basis from its integer rows and must agree with str(Fraction)
over the Fraction view.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addalg import serialize
from addalg import subspace as sub
from addalg.algebra import split_etale_algebra
from addalg.errors import SchemaError
from addalg.fixtures import algebra_fixture
from addalg.serialize import basis_json, dumps, load_instance, parse_rat, table_from_json

from oracles import rational_strs

LONG = "7" * 4301  # one digit past the interpreter's int-from-str limit
# the canonical shapes, each side perturbed by a sign, a decimal point, an
# exponent, an underscore, a space or a non-ASCII digit
NEAR_CANONICAL = st.from_regex(r"[-+ ]?[0-9._e٣²]{0,4}(/[-+ ]?[0-9._e٣²]{0,4})?",
                               fullmatch=True)


def fraction_or_message(s):
    """What parse_rat gave before it read integers: Fraction(str(s)), or its SchemaError."""
    if isinstance(s, bool):
        return "not a rational: " + repr(s)
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        return f"bad rational {s!r}: {e}"


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(st.text("0123456789/-+._e ٣²", max_size=12), NEAR_CANONICAL, st.integers(),
                 st.booleans(), st.fractions().map(str), st.fractions()))
@example(LONG)
@example("-" + LONG)
@example("1/" + LONG)
@example(LONG + "/" + LONG + "7")
@example("3/0")
@example("-0/007")
@example("-6/4")
@example("007/010")
@example("5/")
@example(".5")
@example("-.5")
@example("x1")
def test_parse_rat_matches_fraction_of_str(s):
    want = fraction_or_message(s)
    try:
        got = parse_rat(s)
    except SchemaError as e:
        got = str(e)
    assert got == want
    assert type(got) is type(want)


def test_canonical_forms_are_read_without_parsing_a_fraction(monkeypatch):
    # the documented fast path: only the other forms reach Fraction(str)
    def fraction(*args):
        assert not any(isinstance(a, str) for a in args), args
        return Fraction(*args)

    monkeypatch.setattr(serialize, "Fraction", fraction)
    for text in ("12", "-12", "6/4", "-6/4", "0", "-0/7", LONG[:40] + "/3"):
        assert parse_rat(text) == Fraction(text)
    with pytest.raises(AssertionError):
        parse_rat("1.5")


def test_basis_json_matches_str_of_the_fraction_view():
    # random spans in Q^n with mixed denominators and negative entries,
    # some rows dependent, so pivots fall anywhere and entries reduce
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 7)
        alg = split_etale_algebra(n)
        rows = [[Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6, 9, 35)))
                 for _ in range(n)] for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])
        space = sub.from_vecs(alg, rows)
        assert basis_json(space) == rational_strs(space.basis)


def test_basis_json_of_the_zero_and_the_full_space():
    alg = algebra_fixture("QT3")
    assert basis_json(sub.from_vecs(alg, [[0, 0, 0]])) == []
    assert basis_json(sub.from_vecs(alg, [[1, 2, 3], [0, 1, 0], [0, 0, 5]])) == [
        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_table_unit_defaults_to_element_0_and_bad_rows_name_an_entry():
    # 1 absorbs, so only element 0 is a unit
    assert table_from_json({"table": [[0, 1], [1, 1]]}).unit_index == 0
    # a row with no integer at all is still reported entry by entry
    with pytest.raises(SchemaError, match="^table entry must be an integer$"):
        table_from_json({"table": [[True, False], [False, True]]})


def test_loaded_subspaces_span_their_rows(tmp_path):
    # rows in every accepted form, cleared to integers row by row
    rng = random.Random(8)
    alg_desc = {"kind": "poly_quotient_product", "factors": [["0", "1"]] * 4}
    for trial in range(100):
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(4)]
                for _ in range(rng.randint(1, 4))]
        forms = [str, lambda q: f"{q.numerator * 3}/{q.denominator * 3}",
                 lambda q: q.numerator if q.denominator == 1 else str(q),
                 lambda q: f" {q} ", lambda q: f"{float(q):.20f}" if q.denominator == 2 else str(q)]
        written = [[rng.choice(forms)(q) for q in row] for row in rows]
        path = tmp_path / f"inst{trial}.json"
        path.write_text(dumps({"algebra": alg_desc, "subspaces": {"V": written}}))
        _, alg, spaces = load_instance(str(path))
        assert spaces["V"] == sub.from_vecs(alg, rows)
