import pytest
from hypothesis import given, strategies as st

from multifan.words import (
    Word,
    c_sorted_word,
    contains_longest,
    demazure_product,
    format_word,
    identity,
    longest_element,
    multiassociahedron_word,
    parse_shorthand,
    parse_word,
    right_mult,
)

from conftest import is_reduced, mirror, rotate


def inversions(perm) -> int:
    """Coxeter length of a permutation: its number of inversions."""
    return sum(1 for i, a in enumerate(perm) for b in perm[i + 1:] if a > b)


def words(max_rank=4, max_len=10):
    return st.integers(1, max_rank).flatmap(
        lambda n: st.lists(st.integers(1, n), max_size=max_len).map(
            lambda ls: Word(n, tuple(ls))
        )
    )


def test_longest_element():
    assert longest_element(1) == (2, 1)
    assert longest_element(3) == (4, 3, 2, 1)
    assert inversions(longest_element(4)) == 10
    with pytest.raises(ValueError):
        longest_element(0)


def test_demazure_product():
    assert demazure_product(Word(1, (1, 1))) == (2, 1)
    assert demazure_product(Word(3, ())) == (1, 2, 3, 4)
    # fold of c^2 w0(c) for n=2, step by step this is s1s2s1s2s1s2s1
    assert demazure_product(multiassociahedron_word(2, 2)) == (3, 2, 1)


def test_contains_longest():
    assert contains_longest(c_sorted_word(3))
    assert not contains_longest(Word(2, (1, 2)))
    assert contains_longest(multiassociahedron_word(2, 4))


def test_is_reduced():
    assert is_reduced(Word(2, (1, 2, 1)))
    assert not is_reduced(Word(1, (1, 1)))
    w = c_sorted_word(5)
    assert is_reduced(w) and len(w) == 15


@pytest.mark.parametrize("n,letters", [
    (1, (1,)),
    (2, (1, 2, 1)),
    (4, (1, 2, 3, 4, 1, 2, 3, 1, 2, 1)),
])
def test_c_sorted_word(n, letters):
    assert c_sorted_word(n).letters == letters


def test_c_sorted_word_reduced_up_to_10():
    for n in range(1, 11):
        w = c_sorted_word(n)
        assert is_reduced(w)
        assert demazure_product(w) == longest_element(n)


def test_multiassociahedron_word():
    assert multiassociahedron_word(0, 3) == c_sorted_word(3)
    assert len(multiassociahedron_word(2, 4)) == 18
    assert len(multiassociahedron_word(2, 8)) == 52


def test_rotate():
    w, corr = rotate(Word(1, (1,)))
    assert w.letters == (1,) and corr == {1: 1}
    w, corr = rotate(Word(2, (1, 2, 1)))
    assert w.letters == (2, 1, 2)
    assert corr == {1: 2, 2: 3, 3: 1}
    with pytest.raises(ValueError):
        rotate(Word(2, ()))


def test_mirror():
    assert mirror(Word(2, (1, 2))).letters == (2, 1)
    assert mirror(c_sorted_word(3)).letters == (1, 2, 1, 3, 2, 1)


@given(words())
def test_mirror_involution(w):
    assert mirror(mirror(w)) == w


@given(words())
def test_full_rotation_complements(w):
    # rotating len(w) times complements every letter and cycles positions
    # back to where they started
    if len(w) == 0:
        return
    cur = w
    for _ in range(len(w)):
        cur, _ = rotate(cur)
    assert cur.letters == tuple(w.rank + 1 - a for a in w.letters)


@given(words())
def test_reduced_words_fold_to_product(w):
    if is_reduced(w):
        pi = demazure_product(w)
        assert inversions(pi) == len(w)
        plain = identity(w.rank)
        for a in w.letters:
            plain = right_mult(plain, a)
        assert pi == plain


@given(words(max_rank=3, max_len=9))
def test_rotate_mirror_preserve_containment(w):
    if len(w) == 0:
        return
    had = contains_longest(w)
    assert contains_longest(mirror(w)) == had
    assert contains_longest(rotate(w)[0]) == had


def test_parse_and_format():
    w = parse_word("n=3; 1 2 3 1 2 1")
    assert w == c_sorted_word(3)
    assert parse_word("w0(3)") == c_sorted_word(3)
    assert parse_word("c w0(2)") == multiassociahedron_word(1, 2)
    assert parse_word("c^2 w0(2)").letters == (1, 2, 1, 2, 1, 2, 1)
    assert parse_word(format_word(w)) == w
    with pytest.raises(ValueError):
        Word(2, (3,))


@pytest.mark.parametrize("spec,message", [
    ("garbage", "bad word spec 'garbage'"),
    ("x=3; 1 2", "bad word spec 'x=3; 1 2': expected 'n=<rank>; ...'"),
])
def test_bad_word_spec_is_refused(spec, message):
    with pytest.raises(ValueError) as exc:
        parse_word(spec)
    assert str(exc.value) == message


def test_shorthand_is_read_without_building_the_word():
    assert parse_shorthand("c^2 w0(3)") == (2, 3)
    assert parse_shorthand(" c w0(4) ") == (1, 4)
    assert parse_shorthand("w0(100000)") == (0, 100000)
    assert parse_shorthand("n=3; 1 2 3 1 2 1") is None


@pytest.mark.parametrize("spec", [
    "c^+2 w0(2)", "c^1_0 w0(2)", "w0(+3)", "w0(1_0)", "w0(\u0663)", "c^\u0662 w0(2)",
    "n=+2; 1 2 1", "n=2; 1 +2 1", "n=2; 1 2_0", "n=\u0663; 1",
])
def test_word_spec_integers_are_plain_decimals(spec):
    # int() would take each of these: a sign, an underscore, an Arabic-Indic digit
    with pytest.raises(ValueError, match="bad integer"):
        parse_word(spec)
