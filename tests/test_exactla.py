import random
from fractions import Fraction

import pytest

from multifan.exactla import (
    bareiss_det,
    feasible_nonneg,
    int_rank,
    scale_to_int,
    solve_unique,
)


def test_scale_to_int():
    assert scale_to_int((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert scale_to_int((2, 4, 6)) == (1, 2, 3)
    assert scale_to_int((0, 0)) == (0, 0)


def test_bareiss_det():
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert bareiss_det([[1, 1], [2, 2]]) == 0


def _rref(rows):
    """Reduced row echelon form over Fractions (an independent rank)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return [tuple(row) for row in m[:r]]


def test_solve_unique():
    cols = [(1, 0), (1, 1)]
    assert solve_unique(cols, (3, 2)) == (1, 2)
    with pytest.raises(ValueError):
        solve_unique([(1, 1), (2, 2)], (1, 0))


def test_int_rank():
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 0], [0, 1]]) == 2
    rng = random.Random(11)
    for trial in range(1000):
        ncols = rng.randint(1, 17) if trial % 10 == 0 else rng.randint(1, 6)
        nrows = rng.randint(1, min(ncols + 3, 9))
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 3 and trial % 2:
            # one row a combination of two others: a rank-deficient draw
            i, j, k = rng.sample(range(nrows), 3)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        assert int_rank(rows) == len(_rref(rows)), rows


def test_feasible_nonneg():
    f = Fraction
    # opposite orthants: disjoint
    assert not feasible_nonneg([[f(-1), f(0)], [f(0), f(-1)]])
    # identical cones: intersect
    assert feasible_nonneg([[f(1), f(0)], [f(0), f(1)]])
    # cone straddling the first quadrant: intersects it
    assert feasible_nonneg([[f(1), f(1)], [f(1), f(-1)]])
    # cone in the half-plane x <= 0: disjoint from the open first quadrant
    assert not feasible_nonneg([[f(-1), f(0)], [f(1), f(1)]])
    # degenerate rows
    assert not feasible_nonneg([[f(0), f(0)], [f(1), f(1)]])
