"""
Words in the simple transpositions of a symmetric group.

A word over rank ``n`` is a finite sequence of letters, each letter an
integer ``i`` in ``1..n`` standing for the simple transposition ``s_i``
of ``S_{n+1}``.  Positions into a word are 1-based everywhere, including
in file formats and reports.

Permutations are stored in one-line notation as tuples of the images of
``1..n+1``.

>>> demazure_product(Word(1, (1, 1)))
(2, 1)
>>> c_sorted_word(3).letters
(1, 2, 3, 1, 2, 1)
"""

from __future__ import annotations

import re
from typing import NamedTuple

__all__ = [
    "Permutation",
    "Word",
    "identity",
    "longest_element",
    "right_mult",
    "increases_length",
    "demazure_product",
    "contains_longest",
    "staircase_cells",
    "c_sorted_word",
    "multiassociahedron_word",
    "parse_shorthand",
    "parse_word",
    "format_word",
]

# One-line notation: images of 1..n+1, a tuple of distinct ints.
Permutation = tuple[int, ...]

_INTEGER = re.compile(r"-?[0-9]+")


def _integer(token: str) -> int:
    """A plain decimal integer, as ``str(int)`` writes it: an optional
    minus sign and ASCII digits, with no ``+``, ``_`` or other digits.

    >>> _integer("-12")
    -12
    """
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"bad integer {token!r}")
    return int(token)


# typing forbids __new__ in a NamedTuple body: Word validates in a subclass
class _Word(NamedTuple):
    rank: int
    letters: tuple[int, ...]


class Word(_Word):
    """An immutable word; ``letters[r-1]`` is the letter at 1-based position r."""

    __slots__ = ()

    def __new__(cls, rank: int, letters: tuple[int, ...]):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        for a in letters:
            if not 1 <= a <= rank:
                raise ValueError(f"letter s_{a} out of range for rank {rank}")
        return super().__new__(cls, rank, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def letter(self, r: int) -> int:
        """Letter at 1-based position ``r``."""
        return self.letters[r - 1]

    def delete(self, positions) -> "Word":
        """The word with the given 1-based positions removed."""
        drop = set(positions)
        kept = tuple(a for r, a in enumerate(self.letters, start=1) if r not in drop)
        return Word(self.rank, kept)

    def __str__(self) -> str:
        return format_word(self)


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 2))


def longest_element(n: int) -> Permutation:
    """The longest permutation ``[n+1, n, ..., 1]`` of ``S_{n+1}``.

    >>> longest_element(3)
    (4, 3, 2, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(range(n + 1, 0, -1))


def right_mult(perm: Permutation, i: int) -> Permutation:
    """Right multiplication by ``s_i``: swap images at positions i, i+1."""
    p = list(perm)
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def increases_length(perm: Permutation, i: int) -> bool:
    """Whether right multiplication by ``s_i`` lengthens ``perm``: it adds
    the inversion (i, i+1)."""
    return perm[i - 1] < perm[i]


def demazure_product(w: Word) -> Permutation:
    """0-Hecke evaluation of ``w``: fold left to right, skipping any letter
    that would shorten the product (the relation ``s_i s_i = s_i``).

    >>> demazure_product(Word(2, (1, 2, 1, 2, 1, 2, 1)))
    (3, 2, 1)
    """
    pi = identity(w.rank)
    for a in w.letters:
        if increases_length(pi, a):
            pi = right_mult(pi, a)
    return pi


def contains_longest(w: Word) -> bool:
    """Whether ``w`` contains a reduced expression of the longest element."""
    return demazure_product(w) == longest_element(w.rank)


def staircase_cells(n: int) -> list[tuple[int, int]]:
    """The grid cells (i, j) of the staircase word of rank ``n``, in word
    order: row i holds the letters s_1..s_{n+1-i}, and cell (i, j) holds
    s_j.  Every layout of the staircase (its letters, its labels, its braid
    weights and its diagonals) reads this list.

    >>> staircase_cells(3)
    [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    >>> staircase_cells(0)
    []
    """
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 2 - i)]


def c_sorted_word(n: int) -> Word:
    """The staircase word ``s_1..s_n s_1..s_{n-1} ... s_1 s_2 s_1``, the
    canonical reduced expression of the longest element.

    >>> c_sorted_word(2).letters
    (1, 2, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Word(n, tuple(j for _, j in staircase_cells(n)))


def multiassociahedron_word(k: int, n: int) -> Word:
    """``k`` copies of ``c = s_1..s_n`` followed by the staircase word.

    >>> len(multiassociahedron_word(2, 4))
    18
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    c = tuple(range(1, n + 1))
    return Word(n, c * k + c_sorted_word(n).letters)


def parse_shorthand(text: str) -> tuple[int, int] | None:
    """The k and n of a shorthand word spec ``c^k w0(n)``, read without
    building the word, or None for an explicit spec.

    >>> parse_shorthand("c^2 w0(3)"), parse_shorthand("w0(4)"), parse_shorthand("n=1; 1")
    ((2, 3), (0, 4), None)
    """
    text = text.strip()
    if ";" in text:
        return None
    prefix, w0, call = text.partition("w0(")
    prefix = prefix.strip()
    if not w0 or not call.endswith(")") or (prefix not in ("", "c") and prefix[:2] != "c^"):
        raise ValueError(f"bad word spec {text!r}")
    k = _integer(prefix[2:].strip()) if prefix[:2] == "c^" else len(prefix)
    return k, _integer(call[:-1].strip())


def parse_word(text: str) -> Word:
    """Parse a word spec, its integers as ``_integer`` reads them.

    Accepted forms:

    * explicit: ``n=3; 1 2 3 1 2 1``
    * staircase shorthand: ``w0(3)``
    * prefixed shorthand: ``c^2 w0(3)`` or ``c w0(3)``

    >>> parse_word("c^2 w0(2)").letters
    (1, 2, 1, 2, 1, 2, 1)
    """
    kn = parse_shorthand(text)
    if kn is not None:
        return multiassociahedron_word(*kn)
    head, _, tail = text.strip().partition(";")
    if head[:2] != "n=":
        raise ValueError(f"bad word spec {text.strip()!r}: expected 'n=<rank>; ...'")
    return Word(_integer(head[2:].strip()), tuple(map(_integer, tail.split())))


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`'s explicit form."""
    return f"n={w.rank}; " + " ".join(str(a) for a in w.letters)
