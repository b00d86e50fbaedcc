import pytest

from multifan.moves import (
    MoveEvent,
    apply_move,
    carry,
    classify_braid,
    commutation_trace,
    fattening_sequence,
    format_trace,
)
from multifan.subword import all_facets, is_face, positions_of
from multifan.words import Word, c_sorted_word, multiassociahedron_word, staircase_cells


def carried_labels(trace, start):
    """The label of every letter before each move of a fattening of the
    staircase factor at 0-based offset ``start``, and after the last: the
    staircase letters start out labeled (i, j, False) by their grid cell,
    other letters None; a doubling of an (i, 1, False) letter labels its
    new copy (i, 1, True), and every label follows its letter by ``carry``."""
    n = trace.initial.rank
    labels = [None] * len(trace.initial)
    labels[start : start + n * (n + 1) // 2] = [(i, j, False) for i, j in staircase_cells(n)]
    states = [tuple(labels)]
    for e in trace.events:
        copy = None
        if e.kind == "D":
            i, j, primed = labels[e.r - 1]
            assert j == 1 and not primed
            copy = (i, 1, True)
        carry(labels, e, copy)
        states.append(tuple(labels))
    return states


def final_label_pattern(n):
    """Labels of a fattened factor, left to right: the c prefix reads
    (i,1), the staircase of rank n-1 reads (i,j+1) on its (i,j) letter, and
    the reversed-c suffix reads (i,1)' at its i-th letter."""
    return ([(i, 1, False) for i in range(1, n + 1)]
            + [(i, j + 1, False) for i, j in staircase_cells(n - 1)]
            + [(i, 1, True) for i in range(1, n + 1)])


# every rank and staircase offset whose fattenings the label oracle checks
FATTENINGS = [(n, k) for n in range(1, 10) for k in range(4)]


def facet_sets(w):
    return {frozenset(positions_of(f)) for f in all_facets(w).facets}


def ops_facets(facets, x, x0, x1):
    """Facets of the one-point suspension at vertex x, per the definition."""
    out = set()
    for f in facets:
        if x in f:
            out.add(f - {x} | {x0, x1})
        else:
            out.add(f | {x0})
            out.add(f | {x1})
    return out


def suspension_facets(facets, x0, x1):
    return {f | {x0} for f in facets} | {f | {x1} for f in facets}


def stellar_facets(facets, edge, v):
    """Facets of the stellar subdivision of an edge, per the definition."""
    a, b = edge
    out = set()
    for f in facets:
        if a in f and b in f:
            out.add(f - {a} | {v})
            out.add(f - {b} | {v})
        else:
            out.add(f)
    return out


def test_apply_move_examples():
    assert apply_move(Word(1, (1,)), MoveEvent("D", 1)) == Word(1, (1, 1))
    assert apply_move(Word(2, (1, 2, 1)), MoveEvent("B", 1)) == Word(2, (2, 1, 2))
    assert apply_move(Word(3, (1, 3, 2)), MoveEvent("C", 1)) == Word(3, (3, 1, 2))


@pytest.mark.parametrize("word,event,message", [
    (Word(1, (1,)), MoveEvent("D", 2), "double position 2 out of range"),
    (Word(1, (1,)), MoveEvent("D", 0), "double position 0 out of range"),
    (Word(3, (1, 3)), MoveEvent("C", 2), "commutation position 2 out of range"),
    (Word(2, (1, 2)), MoveEvent("C", 1), "letters s_1 s_2 at 1 do not commute"),
    (Word(2, (1, 2, 1)), MoveEvent("B", 2), "braid position 2 out of range"),
    (Word(2, (1, 2, 2)), MoveEvent("B", 1), "no braid pattern at 1: s_1 s_2 s_2"),
    (Word(2, (1, 2, 1)), MoveEvent("X", 1), "unknown move kind 'X'"),
])
def test_apply_move_refuses(word, event, message):
    with pytest.raises(ValueError) as exc:
        apply_move(word, event)
    assert str(exc.value) == message


def test_fattening_sequence_needs_a_staircase_factor():
    with pytest.raises(ValueError) as exc:
        fattening_sequence(Word(2, (2, 1, 2)))
    assert str(exc.value) == "no staircase factor of rank 2 at offset 0"
    with pytest.raises(ValueError) as exc:
        fattening_sequence(c_sorted_word(2), 1)
    assert str(exc.value) == "no staircase factor of rank 2 at offset 1"


def test_classify_case1():
    # staircase alone: complex is {emptyset}, no letter is a vertex
    assert classify_braid(c_sorted_word(2), 1) == 1


def test_classify_rejects_non_braid():
    with pytest.raises(ValueError, match=r"^no braid pattern at 1: s_1 s_2 s_2$"):
        classify_braid(Word(2, (1, 2, 2)), 1)
    with pytest.raises(ValueError, match=r"^braid position 2 out of range$"):
        classify_braid(Word(2, (1, 2, 1)), 2)


def _correspondence(event, p):
    """Old position -> new position of a move on a word of length p."""
    r = event.r
    if event.kind == "D":
        return {q: q if q <= r else q + 1 for q in range(1, p + 1)}
    corr = {q: q for q in range(1, p + 1)}
    other = r + 1 if event.kind == "C" else r + 2
    corr[r], corr[other] = other, r
    return corr


@pytest.mark.parametrize("k", [0, 1, 2])
def test_carry_follows_each_move_correspondence(k):
    # carry moves every position as the move's correspondence table says,
    # and puts the copy of a doubling at r+1; the trace records the word
    # apply_move returns
    for n in range(1, 7):
        t = fattening_sequence(multiassociahedron_word(k, n), triangle_start=k * n)
        seq = list(range(1, len(t.initial) + 1))
        for s, e in enumerate(t.events):
            assert apply_move(t.words[s], e) == t.words[s + 1]
            want = [None] * len(t.words[s + 1])
            for q, corr_q in _correspondence(e, len(seq)).items():
                want[corr_q - 1] = seq[q - 1]
            if e.kind == "D":
                want[e.r] = ("copy", s)
            carry(seq, e, ("copy", s))
            assert seq == want


def test_fattening_counts_and_final_word():
    for n in range(1, 7):
        t = fattening_sequence(c_sorted_word(n))
        assert t.count("D") == n
        assert t.count("B") == n * (n - 1) // 2
        tail = tuple(range(n, 0, -1))
        assert t.final.letters == c_sorted_word(n).letters + tail


def test_fattening_intermediate_words_n3():
    # the displayed n=3 sequence: after the doublings the three braid moves
    # produce these words in order
    t = fattening_sequence(c_sorted_word(3))
    ws = [w.letters for w in t.words]
    a = ws.index((1, 1, 2, 3, 1, 2, 1, 2, 1))
    b = ws.index((1, 2, 1, 2, 3, 2, 1, 2, 1))
    c = ws.index((1, 2, 3, 1, 2, 3, 1, 2, 1))
    assert a < b < c


def test_final_labels():
    # the carried labels of every fattened factor end on the fixed pattern
    for n, k in FATTENINGS:
        t = fattening_sequence(multiassociahedron_word(k, n), triangle_start=k * n)
        final = carried_labels(t, k * n)[-1]
        assert list(final[k * n : k * n + n * (n + 1) // 2 + n]) == final_label_pattern(n)
    assert final_label_pattern(2) == [
        (1, 1, False), (2, 1, False), (1, 2, False), (1, 1, True), (2, 1, True),
    ]


def test_braid_moves_in_fattening_have_expected_labels():
    # every braid in a fattening acts on letters labeled (i,1)', (i,j+1),
    # (i+j,1), and names the cell (i, j) of its middle letter's label less
    # one column; no other move names a cell
    for n, k in FATTENINGS:
        t = fattening_sequence(multiassociahedron_word(k, n), triangle_start=k * n)
        states = carried_labels(t, k * n)
        for s, e in enumerate(t.events):
            if e.kind != "B":
                assert e.cell is None
                continue
            (i0, j0, primed0), (i1, j1, primed1), (i2, j2, primed2) = states[s][e.r - 1 : e.r + 2]
            assert primed0 and j0 == 1
            assert not primed1 and j1 >= 2 and i1 == i0
            assert not primed2 and j2 == 1 and i2 == i0 + j1 - 1
            assert e.cell == (i1, j1 - 1)
        assert sorted(e.cell for e in t.events if e.kind == "B") == staircase_cells(n - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fattening_braids_classify_3_or_5(n):
    # first fattening from the bare staircase: all case 3
    t1 = fattening_sequence(c_sorted_word(n))
    for s, e in enumerate(t1.events):
        if e.kind == "B":
            assert classify_braid(t1.words[s], e.r) == 3
    # second fattening, applied to the suffix staircase of c w0(c)
    t2 = fattening_sequence(multiassociahedron_word(1, n), triangle_start=n)
    for s, e in enumerate(t2.events):
        if e.kind == "B":
            assert classify_braid(t2.words[s], e.r) in (3, 5)


@pytest.mark.parametrize("n", [2, 3])
def test_doubling_gives_one_point_suspension(n):
    for host, start in [(c_sorted_word(n), 0),
                        (multiassociahedron_word(1, n), n)]:
        t = fattening_sequence(host, triangle_start=start)
        for s, e in enumerate(t.events):
            if e.kind != "D":
                continue
            before, after = t.words[s], t.words[s + 1]
            r = e.r
            shift = lambda q: q if q <= r else q + 1
            shifted = {frozenset(shift(q) for q in f) for f in facet_sets(before)}
            if is_face(before, (r,)):
                # doubled vertex letter: one-point suspension at r with the
                # two copies r, r+1 as suspension vertices
                want = ops_facets(shifted, r, r, r + 1)
            else:
                want = suspension_facets(shifted, r, r + 1)
            assert facet_sets(after) == want


@pytest.mark.parametrize("n", [2, 3])
def test_case3_braids_are_stellar_subdivisions(n):
    t = fattening_sequence(c_sorted_word(n))
    found = 0
    for s, e in enumerate(t.events):
        if e.kind != "B":
            continue
        before, after = t.words[s], t.words[s + 1]
        r = e.r
        assert classify_braid(before, r) == 3
        found += 1
        old = facet_sets(before)
        # subdivision vertex is the new middle; outer letters swap identities
        relabel = {r: r + 2, r + 2: r}
        mapped = {
            frozenset(relabel.get(q, q) for q in f)
            for f in stellar_facets(old, (r, r + 2), r + 1)
        }
        assert facet_sets(after) == mapped
    assert found == n * (n - 1) // 2


def test_commutation_trace():
    t = commutation_trace(Word(3, (1, 3)), Word(3, (3, 1)))
    assert t.events == (MoveEvent("C", 1),) and t.final == Word(3, (3, 1))
    # the fattened staircase reaches c w0(c) by commutations alone, and
    # every letter, carried along, lands on an equal letter of the target
    f = fattening_sequence(c_sorted_word(4))
    target = multiassociahedron_word(1, 4)
    t = commutation_trace(f.final, target)
    assert t.initial == f.final and t.final == target
    assert t.count("C") == len(t.events) > 0
    seq = list(range(1, len(target) + 1))
    for e in t.events:
        carry(seq, e, None)
    assert sorted(seq) == list(range(1, len(target) + 1))
    assert [f.final.letter(q) for q in seq] == list(target.letters)
    assert commutation_trace(target, target).events == ()


@pytest.mark.parametrize("src, dst", [
    (Word(3, (1, 3)), Word(4, (1, 3))),  # ranks differ
    (Word(3, (1, 3)), Word(3, (1, 2))),  # letters differ
    (Word(2, (1, 2)), Word(2, (2, 1))),  # s1 s2 -> s2 s1 does not commute
])
def test_commutation_trace_rejects_non_equivalent_words(src, dst):
    with pytest.raises(ValueError) as exc:
        commutation_trace(src, dst)
    assert "correspond" not in str(exc.value)


def test_format_trace():
    t = fattening_sequence(c_sorted_word(2))
    text = format_trace(t)
    assert text.splitlines()[0] == "D 1"
    verbose = format_trace(t, verbose=True)
    assert "n=2;" in verbose
