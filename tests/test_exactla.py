import random
from fractions import Fraction

import pytest

from multifan import fan
from multifan.exactla import (
    bareiss_det,
    exchange_column,
    feasible_nonneg,
    first_row_dets,
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
        m[r][c:] = [x / m[r][c] for x in m[r][c:]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i][c:] = [a - f * b if b else a for a, b in zip(m[i][c:], m[r][c:])]
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


def _fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions (an independent
    determinant)."""
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            if f:
                m[i][k:] = [a - f * b if b else a for a, b in zip(m[i][k:], m[k][k:])]
    assert det.denominator == 1
    return det.numerator


def _oracle_draw(rng: random.Random, trial: int) -> tuple[list[list[int]], bool]:
    """A seeded integer matrix, and whether it was built to swap a stale
    row in as a pivot.  Sizes run through 0..12, one draw in four is not
    square, entries are mostly zero, and every seventh draw has 240-bit
    entries, the size of the perturbed n=6 determinants.  Odd draws of
    three or more rows are rank deficient; every sixth square draw of size
    three or more has a zero pivot at step 1 that swaps in a row step 0
    left stale."""
    n = trial % 13
    ncols = n if trial % 4 else rng.randint(max(n - 3, 1), n + 3)
    bound = 2 ** 240 if trial % 7 == 0 else 5
    density = rng.choice((0.25, 0.4, 0.55))
    rows = [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(n)]

    def nonzero():
        return rng.choice((-1, 1)) * rng.randint(2, max(bound, 2))

    stale = n >= 3 and ncols == n and trial % 6 == 0
    if stale:
        # the elimination starts at the last column: step 0 pivots on
        # rows[0][-1] and updates rows[1], whose entry in column -2 stays 0;
        # it skips rows[2], which is still stale (scaled by 1, not by that
        # pivot) when it becomes the pivot of column -2
        rows[0][-1], rows[1][-1], rows[2][-2] = nonzero(), nonzero(), nonzero()
        rows[0][-2] = rows[1][-2] = rows[2][-1] = 0
    elif n >= 3 and trial % 2:
        i, j, k = rng.sample(range(n), 3)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows, stale


def test_elimination_matches_fraction_oracle():
    # deferred scaling against Fraction elimination, on draws built to
    # reach every branch: skipped rows, stale pivot rows, early exits
    rng = random.Random(5)
    singular = regular = stale_swaps = big = 0
    for trial in range(1300):
        rows, stale = _oracle_draw(rng, trial)
        assert int_rank(rows) == len(_rref(rows)), rows
        if rows and len(rows[0]) != len(rows):
            continue
        det = _fraction_det(rows)
        assert bareiss_det(rows) == det, rows
        # bareiss_det eliminates the transpose of its rows, so the draw
        # itself is eliminated, stale pivot rows and all, by this one
        assert bareiss_det(list(zip(*rows))) == det, rows
        singular += det == 0
        regular += det != 0
        stale_swaps += stale
        big += det.bit_length() > 240
    assert singular >= 200 and regular >= 200, (singular, regular)
    assert stale_swaps >= 50 and big >= 20, (stale_swaps, big)


def test_first_row_dets_match_fraction_oracle():
    # the d - 1 shared rows eliminated once and each determinant finished
    # from there, against Fraction elimination of each whole matrix: the
    # draws' own first row, and up to two more drawn alike, on the draws
    # of every size, rank-deficient and 240-bit ones among them
    rng = random.Random(13)
    zero = nonzero = 0
    for trial in range(1300):
        rows, _ = _oracle_draw(rng, trial)
        if not rows or len(rows[0]) != len(rows):
            continue
        firsts = [rows[0]] + [[rng.randint(-9, 9) for _ in rows[0]] for _ in range(trial % 3)]
        expected = [_fraction_det([v] + rows[1:]) for v in firsts]
        assert first_row_dets(rows[1:], firsts) == expected, (rows, firsts)
        zero += expected[0] == 0
        nonzero += expected[0] != 0
    assert zero >= 100 and nonzero >= 100, (zero, nonzero)


def _fraction_adjugate(rows):
    """Columns of the adjugate by cofactors: entry i of column j is
    (-1)^(i+j) times the minor without row j and column i."""
    d = len(rows)
    return [[(-1) ** (i + j) * _fraction_det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
             for i in range(d)] for j in range(d)]


def _rank_draw(rng: random.Random, d: int, rank: int, bound: int) -> list[list[int]]:
    """A d x d integer matrix of at most the given rank: random rows, then
    the rows past ``rank`` replaced by combinations of the first ones, and
    the rows shuffled."""
    rows = [[rng.randint(-bound, bound) if rng.random() < 0.6 else 0 for _ in range(d)]
            for _ in range(d)]
    for k in range(rank, d):
        coeffs = [rng.randint(-2, 2) for _ in range(rank)]
        rows[k] = [sum(c * rows[i][j] for i, c in enumerate(coeffs)) for j in range(d)]
    rng.shuffle(rows)
    return rows


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _units(d):
    return [tuple(int(i == j) for i in range(d)) for j in range(d)]


def _fields(cone, row, d):
    """Every field of a tableau row of ``cone``, in the order of the
    positions 1..d of its columns."""
    return [cone.layout.read(row, cone.shifts[c]) for c in range(1, d + 1)]


def _from_unit(rows, rng):
    """``(cone, point)``: the cone of ``rows`` at positions 1..d, exchanged
    in by ``fan._derive`` from the unit matrix, and the point p of its
    numerator row.  The unit vectors follow the rows as the rays of
    positions d + 1..2d, so that the row of the j-th of them holds the
    j-th entries of the adjugate columns.  Like the walk's base point, p is sum_i i r_{b_i}
    over d rays r_{b_i}, here drawn at random from those 2d."""
    d = len(rows)
    rays = [tuple(row) for row in rows] + _units(d)
    drawn = [rng.choice(rays) for _ in range(d)]
    point = [sum(i * ray[k] for i, ray in enumerate(drawn, 1)) for k in range(d)]
    return fan._derive(fan._unit(rays, point), (1 << d) - 1), point


def test_adjugate_matches_fraction_oracle():
    # the cone derived from the unit matrix one row at a time: its
    # determinant, and every field of every tableau row that it derives,
    # whose slots are the adjugate columns: on the unit vectors the
    # cofactors, and on the point p . C; a cone is stuck, with no row,
    # exactly when it is singular, and its route then gives its rank
    rng = random.Random(23)
    kinds = {"regular": 0, "rank d - 1": 0, "rank d - 2 or less": 0}
    for trial in range(900):
        d = 1 + trial % 6
        rank = d - rng.choice((0, 0, 1, 2)) if d > 1 else 1
        rows = _rank_draw(rng, d, max(rank, 0), 2 ** 240 if trial % 9 == 0 else 4)
        cone, point = _from_unit(rows, rng)
        assert cone.f == (1 << d) - 1 and cone.det == _fraction_det(rows), rows
        stuck = cone.q is None
        rank = len(_rref(rows))
        assert stuck == (rank < d), rows
        if stuck:
            assert cone.det == 0 and cone.rows == {} and cone.parent.det, rows
            assert cone.route_rank() == rank, rows
        else:
            cols = _fraction_adjugate(rows)
            derived = [_fields(cone, cone.row(w), d) for w in [*range(d + 1, 2 * d + 1), None]]
            assert derived == [[col[j] for col in cols] for j in range(d)] + [[_dot(point, col) for col in cols]], rows
        kinds["regular" if not stuck else "rank d - 1" if rank == d - 1 else "rank d - 2 or less"] += 1
    assert kinds["regular"] >= 300 and kinds["rank d - 1"] + kinds["rank d - 2 or less"] >= 100, kinds
    assert min(kinds.values()) >= 50, kinds
    unit = fan._unit([], [])
    assert fan._derive(unit, 0) is unit and unit.det == 1


def test_row_exchange_matches_adjugate_from_scratch():
    # the exchange of row j of a regular matrix A for v, row by row, from
    # the cofactors of A against those of the new matrix, also when v makes
    # it singular: the tableau rows of the unit vectors and of the point p
    # of A's rows, the slot of each adjugate column its position, go
    # through exchange_column against the pivot, v's row less det(A) in
    # slot j; the row of the old row j needs no division; every field is
    # read back after the exchange
    rng = random.Random(29)
    singular = 0
    for trial in range(900):
        d = 1 + trial % 6
        rows = _rank_draw(rng, d, d, 2 ** 240 if trial % 9 == 0 else 4)
        det = _fraction_det(rows)
        if not det:
            continue
        cols = _fraction_adjugate(rows)
        j = rng.randrange(d)
        if d > 1 and trial % 3 == 0:
            # a combination of the other rows: the new matrix is singular
            others = [row for i, row in enumerate(rows) if i != j]
            coeffs = [rng.randint(-2, 2) for _ in others]
            v = [sum(c * row[k] for c, row in zip(coeffs, others)) for k in range(d)]
        else:
            v = [rng.randint(-4, 4) for _ in range(d)]
        point = [sum(i * row[k] for i, row in enumerate(rows, 1)) for k in range(d)]
        vectors = _units(d) + [point]
        layout = fan._Layout(d, fan._width(rows + [v], d))
        shift = layout.width * j
        pivot = layout.pack([_dot(v, col) for col in cols]) - (det << shift)
        e = _dot(v, cols[j])
        exchanged = []
        for w in vectors:
            row = layout.pack([_dot(w, col) for col in cols])
            exchanged.append(exchange_column(row, pivot, layout.read(row, shift), e, det))
        left = (e << shift) - pivot
        new = rows[:j] + [v] + rows[j + 1:]
        new_cols = _fraction_adjugate(new)
        read = [[layout.read(row, layout.width * c) for c in range(d)] for row in exchanged + [left]]
        assert (e, read) == (_fraction_det(new), [[_dot(w, col) for col in new_cols] for w in vectors + [rows[j]]]), \
            (rows, j, v)
        singular += e == 0
    assert singular >= 100, singular


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
