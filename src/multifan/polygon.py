"""
Combinatorics of k-relevant diagonals and k-triangulations of a convex
polygon, plus the identification with positions of the word c^k w0(c).

The polygon for parameters (k, n) has m = n + 2k + 1 vertices labeled 1..m
counterclockwise.  A diagonal (a, b) with a < b is k-relevant when each of
the two arcs it cuts off contains at least k polygon vertices strictly.

This module is the brute-force oracle: it enumerates k-triangulations by
backtracking over relevant diagonals and never touches the subword-complex
machinery, so the two enumerations can be compared as independent routes.
The identification is one table, ``position_diagonals``, laid out over the
staircase grid of ``words.staircase_cells`` (after Pilaud-Pocchiola); the
enumeration (``relevant_diagonals``, ``crossing``,
``enumerate_k_triangulations``) never reads it, so comparing the two
routes also checks the table.
"""

from __future__ import annotations

from .words import staircase_cells

__all__ = [
    "Diagonal",
    "polygon_size",
    "crossing",
    "relevant_diagonals",
    "enumerate_k_triangulations",
    "position_diagonals",
    "position_to_diagonal",
    "format_triangulations",
]

# Oracle guard: backtracking is meant for desk-scale instances only.
MAX_ORACLE_KN = 12

Diagonal = tuple[int, int]


def polygon_size(k: int, n: int) -> int:
    return n + 2 * k + 1


def crossing(d1: Diagonal, d2: Diagonal) -> bool:
    """Strict interleaving of endpoints.

    >>> crossing((1, 3), (2, 4))
    True
    >>> crossing((1, 3), (3, 5))
    False
    """
    a1, b1 = d1
    a2, b2 = d2
    return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


def relevant_diagonals(k: int, n: int) -> list[Diagonal]:
    """All k-relevant diagonals in lexicographic order.

    >>> relevant_diagonals(2, 1)
    [(1, 4), (2, 5), (3, 6)]
    """
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    m = polygon_size(k, n)
    return [
        (a, b)
        for a in range(1, m + 1)
        for b in range(a + k + 1, min(m, a + m - k - 1) + 1)
    ]


def _has_clique(adj: list[int], members: list[int], size: int) -> bool:
    """Whether the graph restricted to ``members`` (adjacency bitsets over
    global indices) contains a clique of the given size."""
    if size == 0:
        return True
    if len(members) < size:
        return False
    for i, v in enumerate(members):
        nb = adj[v]
        sub = [u for u in members[i + 1:] if nb >> u & 1]
        if _has_clique(adj, sub, size - 1):
            return True
    return False


def enumerate_k_triangulations(k: int, n: int) -> list[frozenset[Diagonal]]:
    """All inclusion-maximal sets of k-relevant diagonals with no k+1
    mutually crossing, by depth-first search over the lex order.

    Maximality is checked by explicit extension against every unused
    diagonal.  The complex is pure: every maximal set has exactly kn
    diagonals (asserted).

    >>> len(enumerate_k_triangulations(1, 2))
    5
    """
    if k * n > MAX_ORACLE_KN:
        raise ValueError(
            f"instance too large for the oracle: kn = {k * n} > {MAX_ORACLE_KN}"
        )
    diags = relevant_diagonals(k, n)
    nd = len(diags)
    adj = [0] * nd
    for i in range(nd):
        for j in range(i + 1, nd):
            if crossing(diags[i], diags[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    out: list[frozenset[Diagonal]] = []

    def admissible_with(chosen: list[int], cand: int) -> bool:
        # adding cand must not complete k+1 mutually crossing diagonals:
        # no k-clique among the chosen crossers of cand
        crossers = [c for c in chosen if adj[cand] >> c & 1]
        return not _has_clique(adj, crossers, k)

    def extend(chosen: list[int], start: int):
        if len(chosen) == k * n:
            # purity makes any kn-sized admissible set maximal; verified below
            out.append(frozenset(diags[c] for c in chosen))
            return
        for cand in range(start, nd):
            if admissible_with(chosen, cand):
                chosen.append(cand)
                extend(chosen, cand + 1)
                chosen.pop()

    extend([], 0)

    for tri in out:
        idx = [diags.index(d) for d in tri]
        for cand in range(nd):
            if diags[cand] in tri:
                continue
            assert not admissible_with(idx, cand), (
                f"set of size {k * n} is extendable; purity violated"
            )
    return out


def position_diagonals(k: int, n: int) -> list[Diagonal]:
    """The k-relevant diagonal of each position of c^k w0(c), in word order.

    The j-th letter of the a-th copy of c is (a, a+j+k); the staircase
    letter in cell (i, j) is (i+k, i+j+2k).

    >>> position_diagonals(1, 2)
    [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]
    """
    prefix = [(a, a + j + k) for a in range(1, k + 1) for j in range(1, n + 1)]
    return prefix + [(i + k, i + j + 2 * k) for i, j in staircase_cells(n)]


def position_to_diagonal(k: int, n: int, pos: int) -> Diagonal:
    """The diagonal at 1-based position ``pos`` of c^k w0(c), looked up in
    :func:`position_diagonals`."""
    diags = position_diagonals(k, n)
    if not 1 <= pos <= len(diags):
        raise ValueError(f"position {pos} out of range 1..{len(diags)}")
    return diags[pos - 1]


def format_triangulations(tris: list[frozenset[Diagonal]]) -> str:
    """One triangulation per line, diagonals as ``a-b``, lex sorted."""
    lines = []
    for tri in sorted(tris, key=lambda t: sorted(t)):
        lines.append(" ".join(f"{a}-{b}" for a, b in sorted(tri)))
    return "\n".join(lines) + "\n"
