import pytest

from multifan.polygon import (
    crossing,
    enumerate_k_triangulations,
    position_diagonals,
    position_to_diagonal,
    relevant_diagonals,
)
from multifan.subword import positions_of
from multifan.words import multiassociahedron_word

from conftest import get_index


def test_crossing():
    assert crossing((1, 3), (2, 4))
    assert not crossing((1, 3), (3, 5))
    assert crossing((2, 7), (4, 9))
    assert not crossing((1, 3), (4, 6))


def test_relevant_diagonals():
    assert len(relevant_diagonals(2, 4)) == 18
    assert len(relevant_diagonals(1, 2)) == 5
    assert relevant_diagonals(2, 1) == [(1, 4), (2, 5), (3, 6)]
    # always as many as there are letters in c^k w0(c)
    for k, n in [(1, 5), (2, 5), (3, 3)]:
        assert len(relevant_diagonals(k, n)) == len(multiassociahedron_word(k, n))


def test_enumeration_counts():
    assert len(enumerate_k_triangulations(1, 2)) == 5
    assert len(enumerate_k_triangulations(2, 2)) == 14
    assert len(enumerate_k_triangulations(2, 3)) == 84


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_k_triangulations(2, 7)


def test_identification_examples():
    table = position_diagonals(2, 4)
    assert table.index((1, 4)) + 1 == 1
    assert table.index((3, 7)) + 1 == 10
    assert (1, 3) not in table and (4, 1) not in table
    with pytest.raises(ValueError):
        position_to_diagonal(2, 4, len(multiassociahedron_word(2, 4)) + 1)


def test_identification_round_trip():
    for k, n in [(0, 3), (1, 3), (2, 4), (3, 2), (3, 4)]:
        diags = relevant_diagonals(k, n)
        total = len(multiassociahedron_word(k, n))
        # the position table is a bijection onto the k-relevant diagonals
        table = position_diagonals(k, n)
        assert sorted(table) == diags and len(set(table)) == len(table)
        seen = set()
        for d in diags:
            pos = table.index(d) + 1
            assert 1 <= pos <= total
            assert position_to_diagonal(k, n, pos) == d
            seen.add(pos)
        assert len(seen) == total


def test_every_relevant_diagonal_used():
    for k, n in [(1, 3), (2, 2), (2, 3)]:
        tris = enumerate_k_triangulations(k, n)
        used = set().union(*tris)
        assert used == set(relevant_diagonals(k, n))


@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_oracle_matches_subword_facets(k, n):
    tris = enumerate_k_triangulations(k, n)
    table = position_diagonals(k, n)
    mapped = {
        frozenset(table.index(d) + 1 for d in tri) for tri in tris
    }
    idx = get_index(k, n)
    assert mapped == {frozenset(positions_of(f)) for f in idx.facets}
