"""Byte-for-byte CLI goldens.

tests/golden_cases.py holds the recorded commands and how they are run;
each record of `golden_cli.json` must replay byte for byte.

Regenerate (only when an output is meant to change) with
    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json

import pytest

from golden_cases import GOLDEN, cases, run_cases


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_case_list(golden):
    assert [g["argv"] for g in golden] == [argv for argv, _ in cases()]


@pytest.mark.parametrize("index", range(len(cases())))
def test_golden_cli_byte_identical(golden, replayed, index):
    assert replayed[index] == golden[index]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(run_cases(tmp), indent=1) + "\n")
