import collections
import hashlib

import pytest
from hypothesis import given, settings

from multifan import subword
from multifan.subword import (
    all_facets,
    bitset_of,
    entering_positions,
    format_facet_file,
    greedy_facet,
    is_face,
    positions_of,
    walk,
)
from multifan.words import Word, c_sorted_word, multiassociahedron_word

from conftest import (
    bfs_traverse,
    flip_graph,
    flips_of,
    get_index,
    mirror,
    naive_flip,
    orientations,
    parent_of,
    partners,
    rotate,
    walk_records,
    words_rotated_or_mirrored,
    words_with_w0,
    wrap,
)

SMALL = [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
LARGER = [(1, 5), (2, 4), (2, 5), (3, 3), (3, 4)]


def test_greedy_facet():
    assert greedy_facet(c_sorted_word(2)) == 0
    assert positions_of(greedy_facet(Word(1, (1, 1)))) == (2,)
    f = greedy_facet(multiassociahedron_word(2, 2))
    assert len(positions_of(f)) == 4
    with pytest.raises(ValueError):
        greedy_facet(Word(2, (1, 2)))


def test_flip_small():
    w = Word(1, (1, 1))
    assert naive_flip(w, bitset_of([1]), 1) == (2, bitset_of([2]))


def test_pentagon_flip_graph_is_5_cycle():
    idx = get_index(1, 2)
    assert idx.n_facets == 5
    ridges = flip_graph(multiassociahedron_word(1, 2))[1]
    degrees = {}
    for f, g in ridges:
        degrees[f] = degrees.get(f, 0) + 1
        degrees[g] = degrees.get(g, 0) + 1
    assert sorted(degrees) == idx.facets
    assert all(d == 2 for d in degrees.values()) and len(ridges) == 5


@pytest.mark.parametrize("k,n", SMALL)
def test_naive_and_root_flips_agree(k, n):
    # every flip of every facet the walk visits, against the 0-Hecke
    # reference: both sides of every ridge are checked
    w = multiassociahedron_word(k, n)
    for f, entering, *_ in walk_records(w):
        for x, q, g in flips_of(f, entering):
            assert naive_flip(w, f, x) == (q, g)


@pytest.mark.parametrize("k,n", SMALL)
def test_traverse_yields_each_facet_once_and_each_ridge_once(k, n):
    # each ridge once from each of its two facets
    w = multiassociahedron_word(k, n)
    facets = []
    ridges = []
    for f, entering, *_ in walk_records(w):
        facets.append(f)
        # one flip per position of the facet, none entering at a position of f
        assert len(entering) == f.bit_count() and not any(f >> (q - 1) & 1 for q in entering)
        for x, q, g in flips_of(f, entering):
            ridges.append((f & g, f, g))
    assert len(facets) == len(set(facets))
    assert sorted(facets) == get_index(k, n).facets
    assert len(ridges) == len(set(ridges)) == 2 * get_index(k, n).n_ridges
    assert sorted((r, g, f) for r, f, g in ridges) == sorted(ridges)


def _assert_walk_matches_bfs(w):
    walked = walk_records(w)
    facets = [f for f, *_ in walked]
    assert len(facets) == len(set(facets))
    expected = {f: sorted(flips) for f, flips in bfs_traverse(w)}
    assert {f: sorted(flips_of(f, entering)) for f, entering, *_ in walked} == expected


@pytest.mark.parametrize("k,n", SMALL + LARGER)
def test_walk_matches_bfs(k, n):
    _assert_walk_matches_bfs(multiassociahedron_word(k, n))


@pytest.mark.parametrize("k,n", SMALL)
def test_walk_matches_bfs_on_rotated_and_mirrored_words(k, n):
    w = multiassociahedron_word(k, n)
    _assert_walk_matches_bfs(rotate(w)[0])
    _assert_walk_matches_bfs(mirror(w))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_on_reduced_word_of_w0(n):
    # the complement of the empty facet is the whole word: one facet, no flip
    assert walk_records(c_sorted_word(n)) == [(0, [], None, 0, [])]
    _assert_walk_matches_bfs(c_sorted_word(n))


@settings(max_examples=60, deadline=None)
@given(words_with_w0())
def test_walk_matches_bfs_on_drawn_words(w):
    _assert_walk_matches_bfs(w)


def _assert_children_decided_from_the_parent(w):
    """For every facet g of the walk over ``w``, the children that the
    walk passed with g, which it decided from the arrays of g's parent,
    against g's flips (y, p) with p below m(g), the position q that
    entered g (past the last position at the root), read from g's own
    arrays and, independently, from g's root configuration computed from
    scratch; in the order of g's positions."""
    for g, entering, entry, _, children in walk_records(w):
        bound = len(w) + 1 if entry is None else entry[1]
        own = [(y, p) for y, p in zip(positions_of(g), entering) if p < bound]
        scratch = sorted((y, p) for y, p in partners(w, g).items() if p < bound)
        assert children == own == scratch, (w, positions_of(g), entry)


@pytest.mark.parametrize("k,n", SMALL + [(2, 4)])
def test_children_decided_from_the_parent(k, n):
    w = multiassociahedron_word(k, n)
    for v in (w, rotate(w)[0], mirror(w)):
        _assert_children_decided_from_the_parent(v)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words_rotated_or_mirrored())
def test_children_decided_from_the_parent_on_drawn_words(w):
    _assert_children_decided_from_the_parent(w)


@pytest.mark.parametrize("n,internal,leaves", [
    (4, 300, 294),
    pytest.param(6, 22022, 18876, marks=pytest.mark.fulltier),
])
def test_walk_tree_of_c2_w0_is_pinned(monkeypatch, n, internal, leaves):
    # the facets with and without children of c^2 w0(c); the walk copies
    # and reflects the root arrays once per facet that it descends into,
    # the root aside, and never for a leaf
    w = multiassociahedron_word(2, n)
    kinds = collections.Counter(bool(children) for *_, children in walk_records(w))
    assert (kinds[True], kinds[False]) == (internal, leaves)
    copies = wrap(monkeypatch, subword, "_reflect")
    all_facets(w)
    assert len(copies) == len({args[4] for args, _ in copies}) == internal - 1


def _assert_orientation_coherent(w):
    """Every ridge (f, h), seen from f, the later of its facets in the
    walk, with y leaving f and r entering h: e(f) e(h) = -(-1)^k, k the
    positions of f and h strictly between y and r, read from masks of the
    positions below y and r."""
    orient = orientations(w)
    order = {f: i for i, f in enumerate(orient)}
    # below[r]: the positions before r
    below = [0] + [(1 << r) - 1 for r in range(len(w))]
    seen = 0
    records = walk_records(w)
    for f, entering, *_ in records:
        for y, r, h in flips_of(f, entering):
            if order[h] < order[f]:
                between = f & h & (below[y] ^ below[r])
                assert orient[f] * orient[h] == -(-1) ** between.bit_count(), (w, f, h)
                seen += 1
    assert 2 * seen == sum(len(entering) for _, entering, *_ in records)


@pytest.mark.parametrize("k,n", SMALL + [(2, 4)])
def test_orientation_is_coherent(k, n):
    # the complex is a sphere, so the orientation that the walk carries
    # down its tree agrees on every ridge, the tree's and every other
    w = multiassociahedron_word(k, n)
    for v in (w, rotate(w)[0], mirror(w)):
        _assert_orientation_coherent(v)


@settings(max_examples=60, deadline=None)
@given(words_with_w0())
def test_orientation_is_coherent_on_drawn_words(w):
    _assert_orientation_coherent(w)


def _assert_entry_parity_counted(w):
    """Each entry (x, q, k) of the walk over ``w`` against a count from
    scratch: k is the parity of the positions of f strictly between q and
    x, and the flip back, q leaving and x entering, gives the facet one
    level up."""
    path = []
    for f, _, entry, depth, _ in walk_records(w):
        del path[depth:]
        if entry is not None:
            x, q, k = entry
            between = [r for r in positions_of(f) if min(x, q) < r < max(x, q)]
            assert k == len(between) % 2, (w, positions_of(f), entry)
            assert parent_of(f, entry) == path[-1], (w, positions_of(f), entry)
        path.append(f)


@pytest.mark.parametrize("k,n", SMALL + [(2, 4)])
def test_entry_parity_matches_a_count(k, n):
    w = multiassociahedron_word(k, n)
    for v in (w, rotate(w)[0], mirror(w)):
        _assert_entry_parity_counted(v)


@settings(max_examples=60, deadline=None)
@given(words_with_w0())
def test_entry_parity_matches_a_count_on_drawn_words(w):
    _assert_entry_parity_counted(w)


@pytest.mark.parametrize("k,n", SMALL + [(2, 4)])
def test_carried_partners_match_root_configuration(k, n):
    # the roots the walk carries from facet to facet, against the roots of
    # each facet computed from scratch: every flip, both directions, on
    # the word, its rotation and its mirror image
    w = multiassociahedron_word(k, n)
    for v in (w, rotate(w)[0], mirror(w)):
        for f, entering, *_ in walk_records(v):
            assert dict(zip(positions_of(f), entering)) == partners(v, f)


@pytest.mark.parametrize("k,n", SMALL + [(2, 4)])
def test_yielded_roots_never_change(k, n):
    # the walk owns the key and at it passes with a facet, its parent's,
    # and a child with children copies them: read again after the whole
    # walk, every call's arrays give the same entering positions as when
    # they were passed
    w = multiassociahedron_word(k, n)
    calls = []

    def step(state, g, x, q, k, key, at, children):
        calls.append((g, x, q, key, at, entering_positions(w, g, x, q, key, at), key[:], at[:]))

    walk(w, step)
    for g, x, q, key, at, entering, key_then, at_then in calls:
        assert (key, at) == (key_then, at_then) and entering_positions(w, g, x, q, key, at) == entering


@pytest.mark.parametrize("k,n,digest", [
    (2, 5, "74538724ba0aef7562d74460ea5f42a0552abc96bbac9210d484c834a23268d8"),
    (3, 3, "5730223b62409f1621d44ae3f10d5f49cc06fac5bf86cfc560d5c16cac618ac5"),
], ids=["2-5", "3-3"])
def test_walk_records_are_pinned(k, n, digest):
    # every call of the walk's step, in order, as ``walk_records`` gives
    # it: the facet, its flips' entering positions, the flip that entered
    # it, its depth and its children.  The statistics, first failures and
    # witnesses all follow the walk's order, so a rewrite of the walk must
    # make this same sequence of calls
    h = hashlib.sha256()
    for record in walk_records(multiassociahedron_word(k, n)):
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == digest


@pytest.mark.parametrize("k,n", SMALL + [(2, 4)])
def test_walk_reports_each_facet_below_its_parent(k, n):
    # each facet is entered by a decreasing flip of the last facet yielded
    # one level up, its parent; and a facet f entered at q has as children
    # exactly its decreasing flips that enter below q, the facets that
    # later records enter from f, in the order of those flips
    path = []
    flips, children, entered = {}, {}, {}
    for f, entering, entry, depth, _ in walk_records(multiassociahedron_word(k, n)):
        assert depth <= len(path)
        del path[depth:]
        bound = float("inf")
        if entry is None:
            assert depth == 0
        else:
            x, q, _ = entry
            parent = parent_of(f, entry)
            assert x > q and parent == path[-1] and (x, q, f) in flips[parent]
            entered.setdefault(parent, []).append((x, q, f))
            bound = q
        flips[f] = flips_of(f, entering)
        children[f] = [(x, q, g) for x, q, g in flips[f] if q < x and q < bound]
        path.append(f)
    assert all(entered.get(f, []) == kids for f, kids in children.items())


@pytest.mark.parametrize("k,n", SMALL + [(2, 4)])
def test_every_ridge_in_exactly_two_facets(k, n):
    idx = get_index(k, n)
    seen = {}
    for f in idx.facets:
        for r in positions_of(f):
            ridge = f & ~(1 << (r - 1))
            seen[ridge] = seen.get(ridge, 0) + 1
    assert all(c == 2 for c in seen.values())
    assert len(seen) == idx.n_ridges


def test_facet_sizes():
    for k, n in SMALL:
        idx = get_index(k, n)
        size = idx.facet_size()
        assert size == k * n
        for f in idx.facets:
            assert bin(f).count("1") == size


def vertices(w: Word) -> list[bool]:
    """Position r is a vertex iff the word with r deleted still contains a
    reduced expression of w0: the deletion test, no enumeration."""
    return [is_face(w, (r,)) for r in range(1, len(w) + 1)]


def test_vertex_status():
    w = c_sorted_word(3)
    assert vertices(w) == [False] * 6
    assert vertices(Word(1, (1, 1))) == [True, True]
    w = multiassociahedron_word(2, 3)
    assert vertices(w) == [True] * len(w)


@pytest.mark.parametrize("k,n", SMALL)
def test_vertex_status_matches_facet_membership(k, n):
    w = multiassociahedron_word(k, n)
    covered = 0
    for f in get_index(k, n).facets:
        covered |= f
    assert vertices(w) == [bool(covered >> (r - 1) & 1) for r in range(1, len(w) + 1)]


@pytest.mark.parametrize("k,n", SMALL)
def test_mirror_symmetry(k, n):
    w = multiassociahedron_word(k, n)
    idx = all_facets(w)
    m = all_facets(mirror(w))
    p = len(w)
    mapped = {
        frozenset(p + 1 - r for r in positions_of(f)) for f in idx.facets
    }
    assert mapped == {frozenset(positions_of(f)) for f in m.facets}


@pytest.mark.parametrize("k,n", SMALL)
def test_rotation_correspondence(k, n):
    w = multiassociahedron_word(k, n)
    rw, corr = rotate(w)
    idx = all_facets(w)
    ridx = all_facets(rw)
    mapped = {
        frozenset(corr[r] for r in positions_of(f)) for f in idx.facets
    }
    assert mapped == {frozenset(positions_of(f)) for f in ridx.facets}


def test_full_rotation_orbit_recovers_facets():
    for k, n in [(1, 2), (1, 3), (1, 4), (2, 2)]:
        w = multiassociahedron_word(k, n)
        facets = {frozenset(positions_of(f)) for f in all_facets(w).facets}
        cur = w
        comp = {}
        total = {r: r for r in range(1, len(w) + 1)}
        for _ in range(len(w)):
            cur, corr = rotate(cur)
            total = {r: corr[total[r]] for r in total}
        assert cur.letters == tuple(w.rank + 1 - a for a in w.letters)
        rotated = {frozenset(total[r] for r in f) for f in facets}
        assert rotated == {
            frozenset(positions_of(f)) for f in all_facets(cur).facets
        }


def test_facet_counts_match_reference():
    expected = {1: (3, 3), 2: (14, 28), 3: (84, 252), 4: (594, 2376)}
    for n, (cones, ridges) in expected.items():
        idx = get_index(2, n)
        assert (idx.n_facets, idx.n_ridges) == (cones, ridges)


def test_facet_file_format():
    idx = get_index(2, 2)
    head, *body = "".join(format_facet_file(idx)).splitlines()
    assert head == "# word: n=2; 1 2 1 2 1 2 1; facets: 14"
    assert body == [" ".join(map(str, positions_of(f))) for f in idx.facets]
