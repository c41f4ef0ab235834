"""The mutation manifest's edits still apply to src/pricecoord."""

import pytest

from mutants import MUTANTS, occurrences


def test_every_mutant_has_its_own_name():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_old_text_occurs_exactly_once_under_src(mutant):
    # read from the checkout's src/, never from the imported package, so the
    # check holds even while a mutated copy is on the path
    assert occurrences(mutant) == {mutant.file: 1}
    assert mutant.new != mutant.old
