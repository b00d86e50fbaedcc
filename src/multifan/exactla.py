"""
Exact rational linear algebra for the fan verifier.

Rays arrive as tuples of Fractions (or ints).  ``scale_to_int`` clears
their denominators - scaling a generator by a positive rational changes
neither ranks, nor determinant signs, nor the signs of dependence
coefficients - and ``bareiss_det`` and ``int_rank`` take the resulting
integer rows and use fraction-free (Bareiss) elimination, so no precision
is ever lost and no intermediate gcd storms occur.  Clearing denominators
one ray at a time can leave a coordinate divisible by a common content
over all the rays; the certifier (``fan._int_rays``) divides it out, a
positive diagonal change of basis that divides every determinant by the
same positive factor.  On the perturbed n=6 rays that factor has 98 bits,
and the median determinant of the walk drops from 216 to 118 bits.
``solve_unique`` works on Fractions directly.

``bareiss_det``, ``first_row_dets`` and ``int_rank`` share one
elimination with deferred scaling.  Bareiss' step k replaces every entry
x of a row below the pivot row by
``(x * p_k - a * y) // p_{k-1}``, where a is the row's entry in the pivot
column and y the pivot row's entry.  A row whose a is 0 would only be
multiplied by p_k / p_{k-1}, so it is left untouched; each row instead
keeps its own divisor, the pivot p_s of the last step s that updated it.
The skipped factors telescope to p_k / p_s, so the update of a stale row
is ``(x * p_k - a * y) // p_s``, still an exact division, since the
result is the entry that full Bareiss elimination would hold.  A pivot
row is brought up to date once, by ``p_{k-1} / p_s``, when it is chosen;
the last pivot, brought up to date, is the determinant up to the sign of
the row swaps and of the column order.

The elimination runs from the last column to the first, so an updated
row is just its entries left of the pivot column and is never sliced
apart and joined again.  It can stop before the first columns:
``first_row_dets`` puts the transposed d - 1 rows shared by several d x d
matrices last and each matrix's own first row first, so that one
elimination serves them all, and ``bareiss_det`` is its case of one
matrix.

``exchange_column`` serves the certifier's walk, which carries each
facet's adjugate from its parent's, starting from the unit matrix (see
``fan._stats``): replacing one row of a regular matrix changes each
adjugate column by one exact division, and the determinant of the new
matrix is the new row's value on one old adjugate column.  The walk
carries the adjugate by rows, as lrs (Avis) does: the row of a vector w
holds its values w . C on the d adjugate columns, packed as signed
fields of one int (``fan._Layout``).  The update is linear in that row,
so on the int it is four whole-int operations: two multiplications by
scalars, a subtraction and one exact division, where a row kept as a
list would take them once per entry.

Also hosts an exact phase-1 simplex (Bland's rule, guaranteed
termination) that decides whether two open simplicial cones meet.  The
certifier decides the base condition by point location instead (see
``fan._stats``, and ``fan.condition_one`` for the sweep from scratch); the
simplex is the independent oracle that the test suite checks point
location against.

No command calls ``feasible_nonneg`` or ``solve_unique`` (whose one
caller is the oracle ``fan.classify_ridge``): they are test oracles, and
stay here only because the benchmark harness in ``perfbench/`` resolves
them by name (``tests/test_perfbench_names.py``); they move to the tests
when the benchmark stops tracing them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

__all__ = [
    "scale_to_int",
    "bareiss_det",
    "first_row_dets",
    "int_rank",
    "exchange_column",
    "solve_unique",
    "feasible_nonneg",
]

# the rows of an integer matrix
IntMatrix = Sequence[Sequence[int]]


def scale_to_int(vec) -> tuple[int, ...]:
    """Positive rescale of a rational vector to a primitive integer vector
    (direction preserved).  The zero vector stays zero."""
    fracs = [Fraction(x) for x in vec]
    lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (lcm // f.denominator) for f in fracs]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _eliminate(rows: IntMatrix, lead: int = 0) -> tuple:
    """Fraction-free elimination to row echelon form with deferred
    scaling, from the last column to the first, stopping before the first
    ``lead`` columns.

    Returns ``(r, sign, last, m, div)``: the number of pivots found, the
    sign of the row swaps and of the reversal of as many columns as rows,
    the last pivot, brought up to date, and the rows and their divisors
    as the elimination left them.  ``rows`` is never modified.
    """
    m = list(rows)
    nrows = len(m)
    div = [1] * nrows  # divisor of each row: the pivot of its last update
    # reversing the n columns of a square matrix takes n(n-1)/2 transpositions
    sign = -1 if nrows % 4 in (2, 3) else 1
    prev = 1
    r = 0
    for c in reversed(range(lead, len(m[0]) if m else 0)):
        if r == nrows:
            break
        if m[r][c] == 0:
            for i in range(r + 1, nrows):
                if m[i][c] != 0:
                    m[r], m[i] = m[i], m[r]
                    div[r], div[i] = div[i], div[r]
                    sign = -sign
                    break
            else:
                continue
        rk = m[r]
        pivot = rk[c]
        d = div[r]
        if d == prev:
            head = rk[:c]
        else:
            pivot = pivot * prev // d
            head = [x * prev // d for x in rk[:c]]
        r += 1
        for i in range(r, nrows):
            ri = m[i]
            a = ri[c]
            if a:
                d = div[i]
                # zip stops at column c: entries right of it are never read
                m[i] = [(x * pivot - a * y) // d for x, y in zip(ri, head)]
                div[i] = pivot
        prev = pivot
    return r, sign, prev, m, div


def bareiss_det(rows: IntMatrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    >>> bareiss_det([[0, 2, 1], [3, 0, 0], [0, 0, 4]])
    -24
    """
    return first_row_dets(rows[1:], rows[:1])[0] if rows else 1


def first_row_dets(rows: IntMatrix, firsts: IntMatrix) -> list[int]:
    """det([v] + rows) for each v of ``firsts``, of the d - 1 ``rows`` of
    length d, which are eliminated once: transposed, they are the last d -
    1 columns of the d x (e + d - 1) matrix whose first e columns are the
    e vectors v, and the elimination stops before those.  If it finds
    d - 1 pivots, it leaves one row, whose entry in v's column, brought
    up to date, is the last pivot of det([v | rows^T]) = det([v] + rows).

    >>> first_row_dets([[3, 0, 0], [0, 0, 4]], [[0, 2, 1], [1, 1, 1]])
    [-24, -12]
    """
    r, sign, last, m, div = _eliminate(list(zip(*firsts, *rows)), len(firsts))
    if r < len(rows):
        return [0] * len(firsts)
    return [sign * x * last // div[-1] for x in m[-1][:len(firsts)]]


def int_rank(rows: IntMatrix) -> int:
    """Rank of an integer matrix by fraction-free row echelon elimination.

    >>> int_rank([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
    2
    """
    return _eliminate(rows)[0]


def exchange_column(col: int, pivot: int, t: int, e: int, det: int) -> int:
    """The tableau row of a vector w for A' = A with row j replaced by a
    vector v, from w's row ``col`` for A, the values w . C[c] on the
    adjugate columns C[c] of A, det(A) = ``det`` (nonzero): ``(e * col - t
    * pivot) / det``, an exact division.  Here t = w . C[j], e = v . C[j] =
    det(A'), and ``pivot`` is v's row for A less det(A) in entry j, so
    that entry j of the result is t, w's value on column j of adj(A'),
    which is C[j]; e may be 0.  The formula is the change of every
    adjugate column, (e C[c] - (v . C[c]) C[j]) / det, read on w.  A row
    is one int, its entries packed as signed fields (see ``fan._Layout``):
    the formula is linear, so it acts on the int as on every field, and
    the division is exact on the whole int because it is exact on each
    field.

    Row 2 of A = [[2, 1], [4, 3]], of determinant 2 and adjugate columns
    (3, -4) and (-1, 2), replaced by v = (1, 1) gives A' = [[2, 1], [1, 1]]
    of determinant v . (-1, 2) = 1 and adjugate columns (1, -1) and (-1, 2).
    The row of w = (1, 0) holds w's values (3, -1) on the columns of
    adj(A), and v's row (-1, 1) less det(A) = 2 in entry 2 is the pivot
    (-1, -1).  Packed in fields of 8 bits, entry i of a row at bits 8 (i -
    1) to 8 i - 1, the result is w's row (1, -1) for A':

    >>> exchange_column(3 - 1 * 2**8, -1 - 1 * 2**8, -1, 1, 2) == 1 - 1 * 2**8
    True
    """
    return (e * col - t * pivot) // det


def solve_unique(matrix_cols, target) -> tuple[Fraction, ...]:
    """Solve ``sum_j c_j col_j = target`` for a square invertible system of
    rational column vectors.  Raises if the system is singular."""
    cols = [tuple(Fraction(x) for x in c) for c in matrix_cols]
    t = [Fraction(x) for x in target]
    n = len(cols)
    if n == 0 or any(len(c) != n for c in cols) or len(t) != n:
        raise ValueError("solve_unique: need a square system")
    aug = [[cols[j][i] for j in range(n)] + [t[i]] for i in range(n)]
    for k in range(n):
        pr = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pr is None:
            raise ValueError("solve_unique: singular matrix")
        aug[k], aug[pr] = aug[pr], aug[k]
        pk = aug[k][k]
        aug[k] = [x / pk for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return tuple(aug[i][n] for i in range(n))


def feasible_nonneg(a_rows: list[list[Fraction]]) -> bool:
    """Exact feasibility of ``{mu >= 0 : A mu >= 1}`` (componentwise).

    Phase-1 simplex with Bland's rule on the equality form
    ``A mu - s = 1``, ``mu, s >= 0`` plus artificial variables.  Used for
    open-cone intersection: the open cones of two full-dimensional
    simplicial cones intersect iff this system is feasible for
    ``A = basis^-1 * generators``.
    """
    nrows = len(a_rows)
    if nrows == 0:
        return True
    ncols = len(a_rows[0])
    one = Fraction(1)
    # tableau columns: mu (ncols) | slack (nrows) | artificial (nrows) | rhs
    width = ncols + 2 * nrows + 1
    tab = []
    for i, row in enumerate(a_rows):
        t = [Fraction(x) for x in row] + [Fraction(0)] * (2 * nrows) + [one]
        t[ncols + i] = Fraction(-1)
        t[ncols + nrows + i] = one
        tab.append(t)
    basis = [ncols + nrows + i for i in range(nrows)]
    # objective: minimise the sum of artificials; reduced-cost row is
    # c - sum of tableau rows, with c the indicator of artificial columns
    cost = [Fraction(0)] * width
    for i in range(nrows):
        cost[ncols + nrows + i] = one
    for i in range(nrows):
        cost = [c - t for c, t in zip(cost, tab[i])]
    while True:
        enter = next((j for j in range(width - 1) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(nrows):
            if tab[i][enter] > 0:
                ratio = tab[i][width - 1] / tab[i][enter]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise AssertionError("phase-1 simplex unbounded")
        _, leave = best
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(nrows):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        f = cost[enter]
        if f:
            cost = [a - f * b for a, b in zip(cost, tab[leave])]
        basis[leave] = enter
    objective = -cost[width - 1]
    return objective == 0
