"""
Spherical type-A subword complexes: faces, facets and flips.

For a word Q containing a reduced expression of the longest element w0, the
faces of SC(Q) are the position sets J such that Q with J deleted still
contains a reduced expression of w0; the facets are the complements of the
reduced expressions of w0 inside Q.  Facets are stored as bitsets over
positions (bit r-1 set means position r belongs to the facet).

Flips are read off the root configuration of a facet (constant work per
candidate) by the flip-graph traversal :func:`traverse`, the one
enumeration of the complex: the sorted facet list, the statistics and the
certificate all consume it.  It yields each ridge once, as the flip from
its smaller facet to the larger; the tests check both directions of every
such flip against a 0-Hecke reference for small ranks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

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
    "vertex_status",
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
    out = []
    r = 1
    b = facet
    while b:
        if b & 1:
            out.append(r)
        b >>= 1
        r += 1
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


def _partners(w: Word, facet: Facet) -> dict[int, int]:
    """The flip partner of every facet position: the unique complement
    position whose root is the same unordered pair as its own."""
    at = {}
    leaving = []
    for q, (a, b) in enumerate(root_configuration(w, facet), start=1):
        key = (a, b) if a < b else (b, a)
        if facet >> (q - 1) & 1:
            leaving.append((q, key))
        else:
            at[key] = q
    return {x: at[key] for x, key in leaving}


def traverse(w: Word) -> Iterator[tuple[Facet, list[tuple[int, int, Facet]]]]:
    """Breadth-first traversal of the flip graph from the greedy facet.

    Yields every facet once, with its flips ``(x, q, g)`` to a larger
    neighbour ``g > f``: position x leaves, q enters.  Every flip is
    followed to discover facets, but each ridge is yielded once, from its
    smaller facet.
    """
    seed = greedy_facet(w)
    seen = {seed}
    frontier = [seed]
    while frontier:
        next_frontier = []
        for f in frontier:
            flips = []
            for x, q in _partners(w, f).items():
                g = f & ~(1 << (x - 1)) | 1 << (q - 1)
                if g > f:
                    flips.append((x, q, g))
                if g not in seen:
                    seen.add(g)
                    next_frontier.append(g)
            yield f, flips
        frontier = next_frontier


@dataclass
class ComplexIndex:
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
    return ComplexIndex(w, sorted(f for f, _ in traverse(w)))


def vertex_status(w: Word) -> list[bool]:
    """Position r is a vertex iff the word with r deleted still contains a
    reduced expression of w0 (deletion test, independent of enumeration)."""
    if not contains_longest(w):
        raise ValueError("word does not contain a reduced expression of w0")
    return [is_face(w, (r,)) for r in range(1, len(w) + 1)]


def format_facet_file(index: ComplexIndex) -> str:
    from .words import format_word

    lines = [f"# word: {format_word(index.word)}; facets: {index.n_facets}"]
    for f in index.facets:
        lines.append(" ".join(str(r) for r in positions_of(f)))
    return "\n".join(lines) + "\n"
