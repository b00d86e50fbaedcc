import functools
from fractions import Fraction

from multifan.rays import RayAssignment
from multifan.subword import all_facets, traverse
from multifan.words import multiassociahedron_word


@functools.lru_cache(maxsize=None)
def get_index(k: int, n: int):
    """Session-wide cache of enumerated complexes (they are immutable)."""
    return all_facets(multiassociahedron_word(k, n))


@functools.lru_cache(maxsize=None)
def get_ridges(k: int, n: int) -> tuple[tuple[int, int], ...]:
    """Every ridge as its two facets ``(f, g)``, f < g, in bitset order."""
    flips = traverse(multiassociahedron_word(k, n))
    return tuple(sorted((f, g) for f, out in flips for _, _, g in out if f < g))


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
