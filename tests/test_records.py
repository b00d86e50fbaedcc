"""The records are immutable NamedTuples: Word and RayAssignment validate
their fields when built, no field can be set, and reprs read as
``Name(field=value, ...)``."""

from fractions import Fraction

import pytest

from multifan.fan import certify_fan
from multifan.rays import RayAssignment, build_rays
from multifan.words import Word

ONE = (Fraction(1),)
REPORT = certify_fan(build_rays("pattern", 2))


@pytest.mark.parametrize("build, message", [
    (lambda: Word(0, ()), "rank must be >= 1, got 0"),
    (lambda: Word(2, (3,)), "letter s_3 out of range for rank 2"),
    (lambda: RayAssignment(Word(1, (1, 1)), (ONE,), 1), "one ray per position required"),
    (lambda: RayAssignment(Word(1, (1,)), (ONE,), 2), "ray of wrong dimension"),
    (lambda: RayAssignment(Word(1, (1,)), rays=(ONE + ONE,), dim=1, seed=3),
     "ray of wrong dimension"),
], ids=["rank-0", "letter-out-of-range", "one-ray-too-few", "wrong-dimension",
        "wrong-dimension-by-keyword"])
def test_invalid_records_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("record, name", [
    (Word(2, (1, 2, 1)), "rank"),
    (Word(2, (1, 2, 1)), "letters"),
    (Word(2, (1, 2, 1)), "extra"),
    (RayAssignment(Word(1, (1,)), (ONE,), 1), "dim"),
    (RayAssignment(Word(1, (1,)), (ONE,), 1), "extra"),
    (REPORT.stats, "cones"),
    (REPORT, "certified"),
], ids=["word-rank", "word-letters", "word-new", "rays-dim", "rays-new", "stats-cones",
        "report-certified"])
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0)


@pytest.mark.parametrize("letters", [(), (1,), (1, 2, 1), (1, 2, 1, 2, 1, 2, 1)])
def test_word_length_counts_letters(letters):
    assert len(Word(2, letters)) == len(letters)


def test_records_repr_as_name_and_fields():
    ra = RayAssignment(Word(1, (1,)), (ONE,), 1, "naive")
    assert repr(ra) == ("RayAssignment(word=Word(rank=1, letters=(1,)), "
                        "rays=((Fraction(1, 1),),), dim=1, construction='naive', seed=None)")
    assert repr(REPORT.stats).startswith("FanStats(n=2, bad_ridges=0, ")
