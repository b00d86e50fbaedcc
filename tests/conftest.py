import collections
import functools
from fractions import Fraction

from hypothesis import strategies as st

from multifan.exactla import int_rank, scale_to_int
from multifan.fan import CheckReport, FanStats, classify_ridge, condition_one
from multifan.rays import RayAssignment
from multifan.subword import (
    Facet,
    all_facets,
    entering_positions,
    greedy_facet,
    positions_of,
    root_configuration,
    walk,
)
from multifan.words import (
    Word,
    c_sorted_word,
    demazure_product,
    identity,
    increases_length,
    longest_element,
    multiassociahedron_word,
    right_mult,
)

from lp_oracle import lp_condition_one


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


@st.composite
def words_with_w0(draw):
    """A rotation of a word of rank at most 3 made of the staircase
    reduced word of w0 with up to seven letters inserted anywhere."""
    n = draw(st.integers(1, 3))
    letters = list(c_sorted_word(n).letters)
    for at, a in draw(st.lists(st.tuples(st.integers(0, 20), st.integers(1, n)),
                               max_size=7)):
        letters.insert(at % (len(letters) + 1), a)
    w = Word(n, tuple(letters))
    for _ in range(draw(st.integers(0, len(letters) - 1))):
        w = rotate(w)[0]
    return w


@st.composite
def words_rotated_or_mirrored(draw):
    """A drawn word of ``words_with_w0``, read right to left or not."""
    w = draw(words_with_w0())
    return mirror(w) if draw(st.booleans()) else w


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
    flips ``(x, q, g)``, as ``walk_records`` and ``flips_of`` give them, in
    another order."""
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
def flip_graph(w: Word) -> tuple[tuple[Facet, ...], tuple[tuple[Facet, Facet], ...]]:
    """The facets of ``w``'s complex, by ``bfs_traverse``, and its ridges
    as their two facets ``(f, g)``, f < g, each in bitset order."""
    facets, ridges = [], []
    for f, flips in bfs_traverse(w):
        facets.append(f)
        ridges += [(f, g) for _, _, g in flips if f < g]
    return tuple(sorted(facets)), tuple(sorted(ridges))


def certify_from_scratch(ra: RayAssignment) -> CheckReport:
    """The report that ``certify_fan`` must give for ``ra``, from code that
    the walk does not use: the facets and ridges of ``bfs_traverse``; a
    facet singular when it has other than d rays or ``int_rank`` below d;
    every ridge classified by ``classify_ridge``, degenerate at a singular
    facet, the first failure being the least non-good one in bitset order
    or a lone singular facet; and, without a failure, the base condition
    by ``condition_one`` from the greedy facet, whose answer the exact LP
    confirms."""
    facets, ridges = flip_graph(ra.word)
    rank = {f: int_rank([scale_to_int(ra.rays[r - 1]) for r in positions_of(f)]) for f in facets}
    singular = {f for f in facets if f.bit_count() != ra.dim or rank[f] < ra.dim}
    counts = collections.Counter()
    failure = None
    for f, g in ridges:
        status = "degenerate" if f in singular or g in singular else classify_ridge(ra, f, g).status
        counts[status] += 1
        if failure is None and status != "good":
            failure = f"{status} ridge {positions_of(f & g)}"
    if failure is None and len(facets) == 1 and singular:
        failure = f"degenerate cone {positions_of(facets[0])}"
    stats = FanStats(ra.word.rank, counts["bad"], counts["degenerate"], len(ridges), len(singular),
                     len(facets), min(rank.values()))
    if failure is not None:
        return CheckReport(False, stats, failure, "skipped", None, None)
    base = greedy_facet(ra.word)
    witness = condition_one(ra, facets, base)
    lp_witness = lp_condition_one(ra, facets, base)
    assert (witness is None) == (lp_witness is None), ra.rays
    if witness is not None:
        # the witness's open cone meets the base's; the least such cone
        # may be smaller, since it need not hold p
        assert lp_condition_one(ra, [witness], base) == witness and lp_witness <= witness, ra.rays
    holds = witness is None
    first = None if holds else f"open cones of base and {positions_of(witness)} intersect"
    return CheckReport(holds, stats, first, "full", holds, positions_of(base))


def walk_records(w: Word) -> list[tuple]:
    """Every call that ``walk`` makes over ``w``, in order, as ``(f,
    entering, entry, depth, children)``: the entering position of each
    flip of f, read by ``entering_positions`` from the arrays passed with
    f; the flip ``entry = (x, q, k)`` that entered f, None at the root;
    f's depth in the tree, counted through the states that the walk hands
    back; and the children that the walk passed with f."""
    records = []

    def step(depth, g, x, q, k, key, at, children):
        depth = 0 if depth is None else depth + 1
        entry = None if x is None else (x, q, k)
        records.append((g, entering_positions(w, g, x, q, key, at), entry, depth, children))
        return depth

    walk(w, step)
    return records


def wrap(monkeypatch, owner, name, after=None) -> list[tuple]:
    """Replace ``owner.name`` by a call of the original that appends
    ``(args, result)`` to the list returned, and returns
    ``after(result, *args)`` in its place when ``after`` is given."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result if after is None else after(result, *args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def flips_of(f: Facet, entering) -> list[tuple[int, int, Facet]]:
    """The flips ``(x, q, g)`` of a facet ``f`` whose positions have the
    entering positions ``entering``: position x of f leaves, q enters,
    and g is the facet reached, in the order of f's positions."""
    return [(x, q, f & ~(1 << (x - 1)) | 1 << (q - 1))
            for x, q in zip(positions_of(f), entering)]


def parent_of(f: Facet, entry) -> Facet:
    """The facet that the walk entered ``f`` from by ``entry = (x, q, k)``:
    the flip back, q leaving and x entering."""
    x, q, _ = entry
    return f & ~(1 << (q - 1)) | 1 << (x - 1)


def orientations(w: Word) -> dict[Facet, int]:
    """The orientation e of every facet, in walk order, propagated down
    the walk's records as the statistics walk does: e(root) = 1, and a
    facet G entered from P by the flip x -> q has e(G) = -e(P) (-1)^k, k
    the positions of G strictly between x and q, counted here from
    scratch and not read from the walk's record."""
    orient = {}
    for f, _, entry, _, _ in walk_records(w):
        if entry is None:
            orient[f] = 1
        else:
            x, q, _ = entry
            k = sum(min(x, q) < r < max(x, q) for r in positions_of(f))
            orient[f] = -orient[parent_of(f, entry)] * (-1) ** k
    return orient


@functools.lru_cache(maxsize=None)
def get_index(k: int, n: int):
    """Session-wide cache of enumerated complexes (they are immutable)."""
    return all_facets(multiassociahedron_word(k, n))


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
