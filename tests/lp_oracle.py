"""Exact-LP form of the base condition, kept as the oracle for point location.

The open cones of two full-dimensional simplicial cones meet iff
``{mu >= 0 : A mu >= 1}`` is feasible for ``A = basis^-1 * generators``;
the base condition holds iff no other facet's open cone meets the base's.
Under the ridge condition this agrees with the point-location test of
``multifan.fan.condition_one``, by an independent route: a change of basis
and a phase-1 simplex per facet instead of Cramer signs at one point.
"""

from fractions import Fraction

from multifan.exactla import feasible_nonneg
from multifan.subword import positions_of


def invert(cols) -> list[list[Fraction]]:
    """Rows of the inverse of the matrix whose columns are ``cols``."""
    n = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
           for i in range(n)]
    for k in range(n):
        pr = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pr is None:
            raise ValueError("base facet is rank deficient")
        aug[k], aug[pr] = aug[pr], aug[k]
        pk = aug[k][k]
        aug[k] = [x / pk for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def lp_condition_one(ra, facets, base):
    """The first of ``facets`` other than ``base`` whose open cone meets the
    base's, or None, by one exact LP per facet; None exactly when
    ``condition_one`` returns None, under the ridge condition."""
    inv_rows = invert([ra.rays[r - 1] for r in positions_of(base)])
    for f in facets:
        if f == base:
            continue
        a_cols = [[sum(row[i] * ra.rays[r - 1][i] for i in range(ra.dim)) for row in inv_rows]
                  for r in positions_of(f)]
        a_rows = [[col[i] for col in a_cols] for i in range(ra.dim)]
        if feasible_nonneg(a_rows):
            return f
    return None
