"""
Combinatorics of k-relevant diagonals and k-triangulations of a convex
polygon, plus the identification with positions of the word c^k w0(c).

The polygon for parameters (k, n) has m = n + 2k + 1 vertices labeled 1..m
counterclockwise.  A diagonal (a, b) with a < b is k-relevant when each of
the two arcs it cuts off contains at least k polygon vertices strictly.

This module is the brute-force oracle: it enumerates k-triangulations by
backtracking over relevant diagonals and never touches the subword-complex
machinery, so the two enumerations can be compared as independent routes.
"""

from __future__ import annotations

__all__ = [
    "Diagonal",
    "polygon_size",
    "is_relevant",
    "crossing",
    "relevant_diagonals",
    "enumerate_k_triangulations",
    "diagonal_to_position",
    "position_to_diagonal",
    "format_triangulations",
]

# Oracle guard: backtracking is meant for desk-scale instances only.
MAX_ORACLE_KN = 12

Diagonal = tuple[int, int]


def polygon_size(k: int, n: int) -> int:
    return n + 2 * k + 1


def is_relevant(k: int, n: int, d: Diagonal) -> bool:
    a, b = d
    m = polygon_size(k, n)
    if not 1 <= a < b <= m:
        return False
    return b - a - 1 >= k and m - (b - a) - 1 >= k


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


def diagonal_to_position(k: int, n: int, d: Diagonal) -> int:
    """Position in c^k w0(c) of a k-relevant diagonal.

    The a <= k diagonals (a, a+j+k) land in the j-th letter of the a-th
    copy of c; the rest land in the staircase, row a-k, column b-a-k.

    >>> diagonal_to_position(2, 4, (1, 4))
    1
    >>> diagonal_to_position(2, 4, (3, 7))
    10
    """
    if not is_relevant(k, n, d):
        raise ValueError(f"diagonal {d} is not {k}-relevant for n={n}")
    a, b = d
    if a <= k:
        j = b - a - k
        return (a - 1) * n + j
    i = a - k
    j = b - a - k
    return (k + i - 1) * n - (i - 1) * (i - 2) // 2 + j


def position_to_diagonal(k: int, n: int, pos: int) -> Diagonal:
    """Inverse of :func:`diagonal_to_position`."""
    total = k * n + n * (n + 1) // 2
    if not 1 <= pos <= total:
        raise ValueError(f"position {pos} out of range 1..{total}")
    if pos <= k * n:
        a, j = divmod(pos - 1, n)
        return (a + 1, (a + 1) + (j + 1) + k)
    rest = pos - k * n
    i = 1
    while rest > n + 1 - i:
        rest -= n + 1 - i
        i += 1
    j = rest
    return (i + k, i + j + 2 * k)


def format_triangulations(tris: list[frozenset[Diagonal]]) -> str:
    """One triangulation per line, diagonals as ``a-b``, lex sorted."""
    lines = []
    for tri in sorted(tris, key=lambda t: sorted(t)):
        lines.append(" ".join(f"{a}-{b}" for a, b in sorted(tri)))
    return "\n".join(lines) + "\n"
