import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from multifan.subword import (
    all_facets,
    bitset_of,
    format_facet_file,
    greedy_facet,
    is_face,
    positions_of,
    traverse,
)
from multifan.words import Word, c_sorted_word, multiassociahedron_word

from conftest import bfs_traverse, get_index, get_ridges, mirror, naive_flip, partners, rotate

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
    ridges = get_ridges(1, 2)
    degrees = {}
    for f, g in ridges:
        degrees[f] = degrees.get(f, 0) + 1
        degrees[g] = degrees.get(g, 0) + 1
    assert sorted(degrees) == idx.facets
    assert all(d == 2 for d in degrees.values()) and len(ridges) == 5


@pytest.mark.parametrize("k,n", SMALL)
def test_naive_and_root_flips_agree(k, n):
    # every flip of every facet the traversal yields, against the 0-Hecke
    # reference: both sides of every ridge are checked
    w = multiassociahedron_word(k, n)
    for f, flips, *_ in traverse(w):
        for x, q, g in flips:
            assert naive_flip(w, f, x) == (q, g)


@pytest.mark.parametrize("k,n", SMALL)
def test_traverse_yields_each_facet_once_and_each_ridge_once(k, n):
    # each ridge once from each of its two facets
    w = multiassociahedron_word(k, n)
    facets = []
    ridges = []
    for f, flips, *_ in traverse(w):
        facets.append(f)
        # one flip per position of the facet, in position order
        assert [x for x, _, _ in flips] == list(positions_of(f))
        for x, q, g in flips:
            assert g == f & ~(1 << (x - 1)) | 1 << (q - 1)
            ridges.append((f & g, f, g))
    assert len(facets) == len(set(facets))
    assert sorted(facets) == get_index(k, n).facets
    assert len(ridges) == len(set(ridges)) == 2 * get_index(k, n).n_ridges
    assert sorted((r, g, f) for r, f, g in ridges) == sorted(ridges)


def _assert_walk_matches_bfs(w):
    walked = list(traverse(w))
    facets = [f for f, *_ in walked]
    assert len(facets) == len(set(facets))
    expected = {f: sorted(flips) for f, flips in bfs_traverse(w)}
    assert {f: sorted(flips) for f, flips, *_ in walked} == expected


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
    assert list(traverse(c_sorted_word(n))) == [(0, [], None, 0)]
    _assert_walk_matches_bfs(c_sorted_word(n))


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


@settings(max_examples=60, deadline=None)
@given(words_with_w0())
def test_walk_matches_bfs_on_drawn_words(w):
    _assert_walk_matches_bfs(w)


@pytest.mark.parametrize("k,n", SMALL + [(2, 4)])
def test_carried_partners_match_root_configuration(k, n):
    # the roots the walk carries from facet to facet, against the roots of
    # each facet computed from scratch: every flip, both directions, on
    # the word, its rotation and its mirror image
    w = multiassociahedron_word(k, n)
    for v in (w, rotate(w)[0], mirror(w)):
        for f, flips, *_ in traverse(v):
            assert {x: q for x, q, _ in flips} == partners(v, f)
            assert all(g == f & ~(1 << (x - 1)) | 1 << (q - 1) for x, q, g in flips)


@pytest.mark.parametrize("k,n,digest", [
    (2, 5, "768c8c293f0ec5cba356fd13de073914945d9585d0f85019b7c308e2d9c6887a"),
    (3, 3, "42dbe6dbd74a7be0c989ba6463792dca159610e5696178d180fd85966c046ed5"),
], ids=["2-5", "3-3"])
def test_walk_records_are_pinned(k, n, digest):
    # every record the walk yields, in order: the facet, its flips, the
    # flip that entered it and its depth.  The statistics, first failures
    # and witnesses all follow the walk's order, so a rewrite of the walk
    # must yield this same sequence
    h = hashlib.sha256()
    for record in traverse(multiassociahedron_word(k, n)):
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == digest


@pytest.mark.parametrize("k,n", SMALL + [(2, 4)])
def test_walk_reports_each_facet_below_its_parent(k, n):
    # each facet is entered by a decreasing flip of the last facet yielded
    # one level up, its parent; and a facet f entered at q has as children
    # exactly its decreasing flips that enter below q, the facets that
    # later records enter from f, in the order of those flips
    path = []
    flips_of, children, entered = {}, {}, {}
    for f, flips, entry, depth in traverse(multiassociahedron_word(k, n)):
        assert depth <= len(path)
        del path[depth:]
        bound = float("inf")
        if entry is None:
            assert depth == 0
        else:
            x, q, parent = entry
            assert x > q and parent == path[-1] and (x, q, f) in flips_of[parent]
            entered.setdefault(parent, []).append((x, q, f))
            bound = q
        flips_of[f] = flips
        children[f] = [(x, q, g) for x, q, g in flips if q < x and q < bound]
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
