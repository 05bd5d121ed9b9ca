"""Every mutant in ``mutants.py`` still names text found once in ``src/``,
and tests that exist; whether they kill it is the runner's work
(``python tests/mutants.py``), too slow to run with the rest."""

import pytest

from mutants import MUTANTS, REPO, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_is_found_once_and_names_existing_tests(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.text) == 1
    for test in mutant.tests:
        path, *_, name = test.split("::")
        assert f"def {name}(" in (REPO / path).read_text(), test
