"""
Spherical type-A subword complexes: faces, facets and flips.

For a word Q containing a reduced expression of the longest element w0, the
faces of SC(Q) are the position sets J such that Q with J deleted still
contains a reduced expression of w0; the facets are the complements of the
reduced expressions of w0 inside Q.  Facets are stored as bitsets over
positions (bit r-1 set means position r belongs to the facet).

Flips are read off the root configuration of a facet: the partner of a
facet position is the complement position carrying the same root.  The
one enumeration of the complex is :func:`walk`, a reverse search of the
increasing-flip tree that calls a ``step`` once per facet, with the flip
that entered it and the children that the walk decided from its
parent's roots; the sorted facet list, the statistics and the
certificate are each such a step.  Only a facet with children gets its
own copy of the roots, so a leaf costs no copy, and the root facet's
map from roots to complement positions serves the whole walk.
``entering_positions`` reads a facet's flips from the word and the
facet alone, when a step asks for them, so each ridge can be seen from
both of its facets; the tests check every flip against a 0-Hecke
reference, the children against each facet's own flips, and the walk
against a breadth-first search.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections.abc import Iterator
from itertools import combinations
from typing import NamedTuple

from .words import (
    Word,
    contains_longest,
    format_word,
    identity,
    increases_length,
    longest_element,
    right_mult,
)

__all__ = [
    "Facet",
    "ComplexIndex",
    "bitset_of",
    "positions_of",
    "is_face",
    "greedy_facet",
    "root_configuration",
    "walk",
    "entering_positions",
    "all_facets",
    "format_facet_file",
]

# A facet as a bitset over 1-based positions: bit r-1 <-> position r.
Facet = int


def bitset_of(positions) -> Facet:
    """The facet bitset of 1-based positions, the inverse of ``positions_of``.

    >>> f = bitset_of((1, 3, 4))
    >>> f, positions_of(f)
    (13, (1, 3, 4))
    >>> bitset_of(positions_of(f)) == f
    True
    """
    b = 0
    for r in positions:
        b |= 1 << (r - 1)
    return b


def positions_of(facet: Facet) -> tuple[int, ...]:
    """The 1-based positions of a facet bitset, in increasing order, read
    off its set bits one at a time (``b & -b`` isolates the lowest).

    >>> positions_of(0b1101)
    (1, 3, 4)
    """
    out = []
    b = facet
    while b:
        low = b & -b
        out.append(low.bit_length())
        b ^= low
    return tuple(out)


def is_face(w: Word, positions) -> bool:
    """Face test: deleting the positions must leave a word that still
    contains a reduced expression of w0."""
    return contains_longest(w.delete(positions))


def greedy_facet(w: Word) -> Facet:
    """Seed facet for the flip-graph traversal.

    Scan left to right keeping every letter that extends the 0-Hecke fold;
    the kept positions form the leftmost reduced expression of w0 and their
    complement is a facet.

    >>> from .words import Word
    >>> positions_of(greedy_facet(Word(1, (1, 1))))
    (2,)
    """
    pi = identity(w.rank)
    facet = 0
    for r, a in enumerate(w.letters, start=1):
        if increases_length(pi, a):
            pi = right_mult(pi, a)
        else:
            facet |= 1 << (r - 1)
    if pi != longest_element(w.rank):
        raise ValueError("word does not contain a reduced expression of w0")
    return facet


def root_configuration(w: Word, facet: Facet) -> list[tuple[int, int]]:
    """For every position q, the pair ``(pi(i), pi(i+1))`` where ``s_i`` is
    the letter at q and pi is the product of the complement letters before q.

    The complement positions carry each positive root exactly once (as the
    inversion sequence of a reduced word); a facet position carries the same
    unordered pair as its unique flip partner in the complement.
    """
    pi = list(identity(w.rank))
    roots = []
    for q, a in enumerate(w.letters, start=1):
        roots.append((pi[a - 1], pi[a]))
        if not facet >> (q - 1) & 1:
            pi[a - 1], pi[a] = pi[a], pi[a - 1]
    return roots


@functools.cache
def _roots(rank: int):
    """The roots of ``rank``, the pairs a < b of the values 1..rank+1,
    numbered once: each pair's number, and ``refl[beta][k]``, root k
    reflected by the transposition of root beta.  Every pair is a root,
    as the complement of a facet is a reduced word of w0.  Cached per
    rank, the tables are shared by every walk: read only."""
    pairs = list(combinations(identity(rank), 2))
    ids = {p: i for i, p in enumerate(pairs)}
    refl = [[ids[tuple(sorted(t.get(v, v) for v in p))] for p in pairs]
            for t in ({a: b, b: a} for a, b in pairs)]
    return ids, refl


def _reflect(key, x, q, rb):
    """The root keys of the facet entered by the flip x -> q from the
    facet whose keys are ``key``, as a new list: the flip exchanges the
    root beta = ``key[x]``, which x and q both carry, and reflects by
    beta's transposition, ``rb`` = ``refl[beta]``, the root of every
    position strictly between q and x; every other position keeps its
    root."""
    key = key[:]
    for r in range(q + 1, x):
        key[r] = rb[key[r]]
    return key


def walk(w: Word, step) -> None:
    """Call ``step(state, g, x, q, k, children)`` once for every facet g,
    each before its children, which follow in the order of their flips.
    g was entered by the flip x -> q from the facet that ``step``
    returned ``state`` for, k the parity of g's positions strictly
    between q and x; ``children`` lists the flips (y, p) of g that enter
    its children, and the walk keeps what ``step`` returns as the
    ``state`` of their calls.  The root's one call has state, x, q and k
    None.  A step that needs all of g's flips reads them with
    ``entering_positions``.  On c w0(2), the pentagon:

    >>> w = Word(2, (1, 2, 1, 2, 1))
    >>> def show(state, g, x, q, k, children):
    ...     print(positions_of(g), entering_positions(w, g), (x, q, k), children)
    >>> walk(w, show)
    (4, 5) [1, 3] (None, None, None) [(4, 1), (5, 3)]
    (1, 5) [4, 2] (4, 1, 0) []
    (3, 4) [5, 2] (5, 3, 1) [(4, 2)]
    (2, 3) [4, 1] (4, 2, 1) [(3, 1)]
    (1, 2) [3, 5] (3, 1, 1) []

    The walk is a reverse search (Avis-Fukuda), a depth-first search of
    the increasing-flip tree (Pilaud-Pocchiola).  Its root is the greedy
    facet, the one facet without an increasing flip (q > x), and m(root)
    is past the last position.  The parent of any other facet G is its
    increasing flip at the least position m(G) that has one.  The
    children of F are the facets G reached by a flip x -> q of F with
    q < m(F), and m(G) = q: the flip leaves every root before q
    unchanged, so the positions of G before q keep their decreasing
    flips, and q flips back up to x.  Such a flip decreases, since an
    increasing flip of F has q > x >= m(F).  So no parent test and no
    visited set is needed, only the facets from the root to the one at
    hand, at most 29 deep at n=7.

    The roots, the pairs of values, are numbered once (``_roots``);
    ``key[r]`` is the number of position r's root, and ``at`` maps the
    root of each complement position back to the position.  Both are
    computed once, at the root, and each facet with children gets its
    own copy of its parent's keys, reflected by ``_reflect``, so that
    returning from it undoes nothing.  A child's children are decided
    from its parent's keys: the flip x -> q of F into G leaves every
    root outside [q, x] in place and reflects those strictly between, so
    G's flips that enter below q are F's flips (y, p) with p < q and y
    outside [q, x], and each position y of F strictly between q and x
    whose reflected root the complement carries at some p < q.  So a
    leaf, a facet without children, is never copied.  The root's ``at``
    answers each of these reads, and is never copied or written: the
    entering positions decrease from the root to G, and a flip x -> q
    moves roots and complement positions only at q and past it, so a
    root that G's complement carries below q sits at the same position
    in the root's, and any other root is at q or past it in both.
    """
    ids, refl = _roots(w.rank)
    root = greedy_facet(w)
    key = [0] + [ids[min(a, b), max(a, b)] for a, b in root_configuration(w, root)]
    at = [0] * len(ids)
    for q in positions_of(~root & (1 << len(w)) - 1):  # the complement
        at[key[q]] = q
    pos = list(positions_of(root))  # sorted

    def descend(f, key, pos, state, children):
        low = (~f & f + 1).bit_length()  # f's first complement position
        for x, q in children:
            g = f ^ 1 << (x - 1) | 1 << (q - 1)
            i = bisect_left(pos, q)
            j = bisect_left(pos, x, i)
            rb = refl[key[x]]
            # g's flips that enter below q, from f's roots: none if no
            # position below q is free to enter
            kids = ([(y, p) for y in pos if (p := at[rb[key[y]] if q < y < x else key[y]]) < q]
                    if q > low else [])
            g_state = step(state, g, x, q, (j - i) & 1, kids)
            if kids:
                g_pos = pos[:]
                del g_pos[j]
                g_pos.insert(i, q)
                descend(g, _reflect(key, x, q, rb), g_pos, g_state, kids)

    # m(root) is past the last position: every flip of the root is a child
    children = [(x, at[key[x]]) for x in pos]
    descend(root, key, pos, step(None, root, None, None, None, children), children)


def entering_positions(w: Word, g: Facet) -> list[int]:
    """The entering position of the flip at each position of g, in
    position order, from the word and g alone, in one pass over the
    letters: the root of position r is the pair u < v of values that
    its letter exchanges in the product of the complement letters
    before r, numbered u (rank + 2) + v, and a position of g flips to
    the complement position of the same root.  A complement letter
    lengthens the product, so its pair is already in order.

    >>> entering_positions(Word(2, (1, 2, 1, 2, 1)), 0b11000)
    [1, 3]
    """
    pi = list(identity(w.rank))
    m = w.rank + 2
    at, roots = {}, []
    for r, a in enumerate(w.letters, start=1):
        u, v = pi[a - 1], pi[a]
        if g >> (r - 1) & 1:
            roots.append(u * m + v if u < v else v * m + u)
        else:
            at[u * m + v] = r
            pi[a - 1], pi[a] = v, u
    return [at[root] for root in roots]


class ComplexIndex(NamedTuple):
    """The enumerated complex: its facets in sorted bitset order."""

    word: Word
    facets: list[Facet]

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def n_ridges(self) -> int:
        # the complex is a sphere: every facet position flips, and every
        # ridge lies in exactly two facets
        return self.n_facets * self.facet_size() // 2

    def facet_size(self) -> int:
        return len(self.word) - self.word.rank * (self.word.rank + 1) // 2


def all_facets(w: Word) -> ComplexIndex:
    """The complex as enumerated by :func:`walk`, facets sorted."""
    facets = []
    walk(w, lambda state, g, *_: facets.append(g))
    return ComplexIndex(w, sorted(facets))


def format_facet_file(index: ComplexIndex) -> Iterator[str]:
    """The lines of the facet file, one at a time: a header, then the
    positions of each facet in sorted order."""
    yield f"# word: {format_word(index.word)}; facets: {index.n_facets}\n"
    for f in index.facets:
        yield " ".join(map(str, positions_of(f))) + "\n"
