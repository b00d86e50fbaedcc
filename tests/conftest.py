import functools
from fractions import Fraction

from multifan.rays import RayAssignment
from multifan.subword import (
    Facet,
    all_facets,
    greedy_facet,
    positions_of,
    root_configuration,
    traverse,
)
from multifan.words import (
    Word,
    demazure_product,
    identity,
    increases_length,
    longest_element,
    multiassociahedron_word,
    right_mult,
)


def is_reduced(w: Word) -> bool:
    """Whether ``w`` is a reduced expression of its product (the 0-Hecke
    fold never skips a letter)."""
    pi = identity(w.rank)
    for a in w.letters:
        if not increases_length(pi, a):
            return False
        pi = right_mult(pi, a)
    return True


def rotate(w: Word) -> tuple[Word, dict[int, int]]:
    """Move the last letter, complemented, to the front.

    Returns the rotated word and the position correspondence
    old position -> new position (the moved letter goes to position 1,
    every other position shifts right by one).
    """
    p = len(w)
    if p == 0:
        raise ValueError("cannot rotate the empty word")
    last = w.letters[-1]
    new = Word(w.rank, (w.rank + 1 - last,) + w.letters[:-1])
    corr = {r: r + 1 for r in range(1, p)}
    corr[p] = 1
    return new, corr


def mirror(w: Word) -> Word:
    """The word read right to left."""
    return Word(w.rank, w.letters[::-1])


def naive_flip(w: Word, facet: Facet, r: int) -> tuple[int, Facet]:
    """Reference flip: try every complement position as the partner of r.

    Returns ``(r2, facet2)`` with ``facet2 = facet - {r} + {r2}``.
    """
    if not facet >> (r - 1) & 1:
        raise ValueError(f"position {r} not in facet")
    base = facet & ~(1 << (r - 1))
    partners = []
    for r2 in range(1, len(w) + 1):
        if r2 == r or base >> (r2 - 1) & 1 or facet >> (r2 - 1) & 1:
            continue
        cand = base | 1 << (r2 - 1)
        if demazure_product(w.delete(positions_of(cand))) == longest_element(w.rank):
            partners.append(r2)
    if len(partners) != 1:
        raise AssertionError(
            f"flip of {r} in {positions_of(facet)} has partners {partners}"
        )
    r2 = partners[0]
    return r2, base | 1 << (r2 - 1)


def partners(w: Word, facet: Facet) -> dict[int, int]:
    """The flip partner of every facet position, from a root configuration
    computed from scratch: the unique complement position whose root is
    the same unordered pair as its own."""
    at = {}
    leaving = []
    for q, (a, b) in enumerate(root_configuration(w, facet), start=1):
        key = (a, b) if a < b else (b, a)
        if facet >> (q - 1) & 1:
            leaving.append((q, key))
        else:
            at[key] = q
    return {x: at[key] for x, key in leaving}


def bfs_traverse(w: Word):
    """Reference enumeration: breadth-first search of the flip graph from
    the greedy facet, with a set of every facet seen and the partners of
    every facet from scratch.  Yields each facet once, with all of its
    flips ``(x, q, g)``, as ``traverse`` does, in another order."""
    seed = greedy_facet(w)
    seen = {seed}
    frontier = [seed]
    while frontier:
        next_frontier = []
        for f in frontier:
            flips = []
            for x, q in partners(w, f).items():
                g = f & ~(1 << (x - 1)) | 1 << (q - 1)
                flips.append((x, q, g))
                if g not in seen:
                    seen.add(g)
                    next_frontier.append(g)
            yield f, flips
        frontier = next_frontier


@functools.lru_cache(maxsize=None)
def get_index(k: int, n: int):
    """Session-wide cache of enumerated complexes (they are immutable)."""
    return all_facets(multiassociahedron_word(k, n))


@functools.lru_cache(maxsize=None)
def get_ridges(k: int, n: int) -> tuple[tuple[int, int], ...]:
    """Every ridge as its two facets ``(f, g)``, f < g, in bitset order."""
    walk = traverse(multiassociahedron_word(k, n))
    return tuple(sorted((f, g) for f, flips, *_ in walk for _, _, g in flips if f < g))


# positions of c w0(2) in the angular order of the loday rays
DOUBLE_COVER_ORDER = (2, 3, 4, 5, 1)
# (round(1000 cos t), round(1000 sin t)) at t = 0, 144, 288, 72, 216 degrees:
# steps of 144 degrees, two full turns over the five positions
_DOUBLE_COVER_POINTS = ((1000, 0), (-809, 588), (309, -951), (309, 951), (-809, -588))


def double_cover_rays() -> RayAssignment:
    """Rays on c w0(2) whose five cones wind twice around the origin: every
    ridge is good, but every generic point is covered twice."""
    rays = [None] * 5
    for q, point in zip(DOUBLE_COVER_ORDER, _DOUBLE_COVER_POINTS):
        rays[q - 1] = tuple(Fraction(x) for x in point)
    return RayAssignment(multiassociahedron_word(1, 2), tuple(rays), 2, "double-cover")


def in_dimension(ra: RayAssignment, dim: int) -> RayAssignment:
    """``ra``'s rays with the coordinates past ``dim`` dropped, or with
    zero coordinates appended up to ``dim``: rays of another dimension
    than the facets' size."""
    rays = tuple(v[:dim] + (0,) * (dim - len(v)) for v in ra.rays)
    return RayAssignment(ra.word, rays, dim, "x")
