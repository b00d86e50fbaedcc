"""
Spherical type-A subword complexes: faces, facets and flips.

For a word Q containing a reduced expression of the longest element w0, the
faces of SC(Q) are the position sets J such that Q with J deleted still
contains a reduced expression of w0; the facets are the complements of the
reduced expressions of w0 inside Q.  Facets are stored as bitsets over
positions (bit r-1 set means position r belongs to the facet).

Flips are read off the root configuration of a facet: the partner of a
facet position is the complement position carrying the same root.  The
one enumeration of the complex is :func:`traverse`, a reverse search of
the increasing-flip tree that keeps only the path from the root, each
level with its own copy of the facet's root configuration: the sorted
facet list, the statistics and the certificate all consume it.  It
yields every facet with all of its flips, so each ridge is seen from both
of its facets; the tests check every flip against a 0-Hecke reference,
and the walk against a breadth-first search, for small ranks.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from typing import NamedTuple

from .words import (
    Word,
    contains_longest,
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
    "traverse",
    "all_facets",
    "format_facet_file",
]

# A facet as a bitset over 1-based positions: bit r-1 <-> position r.
Facet = int
# A flip (x, q, g): position x leaves the facet, q enters, g is the result.
Flip = tuple[int, int, Facet]


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


def traverse(w: Word) -> Iterator[tuple[Facet, list[Flip], Flip | None, int]]:
    """Every facet f once, as ``(f, flips, entry, depth)``: all of f's
    flips ``(x, q, g)`` in position order, position x leaving and q
    entering; the flip ``(x, q, parent)`` that entered f, None at the
    root; and its depth in the tree.  Each facet is yielded before its
    children, which follow in the order of their flips, and each ridge is
    seen from both of its facets.

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
    visited set is needed, only the path from the root, at most 29
    facets deep at n=7.

    The root configuration is computed once, at the root, and carried
    along the path.  The roots, the pairs of values, are numbered once;
    ``key[r]`` is the number of position r's root, and ``at`` maps the
    root of each complement position back to the position.  A flip x -> q
    exchanging the root beta reflects, by beta's transposition, the root
    of every position strictly between q and x, read from the table
    ``refl[beta]``; x and q both carry beta, and every other position
    keeps its root.  Each level of the path holds its own ``key``, ``at``
    and sorted facet positions: a child gets updated copies of its
    parent's, so leaving it drops them and undoes nothing.
    """
    root = greedy_facet(w)
    values = identity(w.rank)
    pairs = [(a, b) for i, a in enumerate(values) for b in values[i + 1:]]
    ids = {p: i for i, p in enumerate(pairs)}
    # refl[beta][k]: root k reflected by the transposition t of root beta;
    # every pair of values is a root, as the complement of a facet is a
    # reduced word of w0
    refl = [[ids[tuple(sorted(t.get(v, v) for v in p))] for p in pairs]
            for t in ({a: b, b: a} for a, b in pairs)]
    key = [0] + [ids[min(a, b), max(a, b)] for a, b in root_configuration(w, root)]
    bit = [0] + [1 << r for r in range(len(key) - 1)]  # bit[r]: position r
    at = [0] * len(pairs)
    for q in range(1, len(key)):
        if not root & bit[q]:
            at[key[q]] = q

    f, m, pos = root, len(key), list(positions_of(root))  # m(root) is past the last position
    # per facet on the path from the root: the facet, its roots, its
    # positions and its children not yet visited
    path = []
    entry = None
    while True:
        flips = []
        children = []
        for x in pos:
            q = at[key[x]]
            flip = (x, q, f ^ bit[x] | bit[q])
            flips.append(flip)
            if q < m:
                children.append(flip)
        yield f, flips, entry, len(path)
        path.append((f, key, at, pos, iter(children)))
        while path:
            parent, key, at, pos, pending = path[-1]
            child = next(pending, None)
            if child is not None:
                x, q, f = child
                # q < x: position x leaves, q enters, and the roots
                # strictly between them are reflected by beta's
                beta = key[x]
                rb = refl[beta]
                key, at = key[:], at[:]
                for r in range(q + 1, x):
                    k = rb[key[r]]
                    if k != key[r]:
                        key[r] = k
                        if not f & bit[r]:
                            at[k] = r
                at[beta] = x
                i = bisect_left(pos, q)
                j = bisect_left(pos, x, i)
                pos = pos[:i] + [q] + pos[i:j] + pos[j + 1:]
                m, entry = q, (x, q, parent)
                break
            path.pop()
        else:
            return


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
    """The complex as enumerated by :func:`traverse`, facets sorted."""
    return ComplexIndex(w, sorted(f for f, *_ in traverse(w)))


def format_facet_file(index: ComplexIndex) -> Iterator[str]:
    """The lines of the facet file, one at a time: a header, then the
    positions of each facet in sorted order."""
    from .words import format_word

    yield f"# word: {format_word(index.word)}; facets: {index.n_facets}\n"
    for f in index.facets:
        yield " ".join(map(str, positions_of(f))) + "\n"
