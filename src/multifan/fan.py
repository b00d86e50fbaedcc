"""
Exact certification of the complete-simplicial-fan conditions and the
associated degeneracy statistics.

A candidate realization assigns one ray per position; each facet of the
complex spans a cone.  The two checks are:

* ridge condition: across every pair of adjacent facets, the unique linear
  dependence on the 2n+1 involved rays must carry coefficients of the same
  nonzero sign on the two exchanged rays;
* base condition: one point must lie in exactly one cone.  The point is
  p = sum_i i * r_i over the base facet's rays, strictly inside the base
  cone, and the condition holds iff no other facet's closed cone contains
  p (exact point location by Cramer signs, one facet at a time).

Once the ridge condition holds, the cones cover every generic point the
same number of times, so a point interior to the base and outside every
other closed cone shows that number is one: the cones form a complete
fan.  Conversely, in a complete fan an interior point of one cone lies in
no other closed cone.

A facet whose rays do not span the ambient space is a degenerate cone; a
ridge incident to a degenerate cone is counted as a degenerate ridge and
its sign is not examined (the dual graph being regular, the two counts
determine the number of adjacent pairs of degenerate cones).  When both
neighbouring facets are full rank, the dependence is unique and the
exchanged-ray coefficients are automatically nonzero, so the sign test
reduces to one determinant per facet plus a column-shift parity per
ridge.

Each fact is decided once, in one flip-graph sweep: a facet's
determinant when the facet is first met (and its rank, if that is 0),
a ridge's status when the traversal yields it from its smaller facet,
and the first failure when the least failing ridge is classified.  The
base condition then reads the sweep's determinant map.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction

from .exactla import bareiss_det, det_rank, int_rank, scale_to_int, solve_unique
from .subword import Facet, greedy_facet, positions_of, traverse
from .rays import RayAssignment

__all__ = [
    "RidgeReport",
    "FanStats",
    "CheckReport",
    "STAT_ROWS",
    "facet_rank",
    "classify_ridge",
    "condition_one",
    "stream_statistics",
    "certify_fan",
    "format_stats_table",
    "ratio_str",
]


@dataclass(frozen=True)
class RidgeReport:
    ridge: tuple[int, ...]
    status: str  # "good" | "bad" | "degenerate"
    # dependence over the rays of f then the entering ray, when unique
    dependence: tuple[Fraction, ...] | None


@dataclass(frozen=True)
class FanStats:
    n: int
    bad_ridges: int
    degenerate_ridges: int
    ridges: int
    degenerate_cones: int
    cones: int
    min_dimension: int

    @property
    def ridge_ratio(self) -> str:
        return ratio_str(self.degenerate_ridges, self.ridges)

    @property
    def cone_ratio(self) -> str:
        return ratio_str(self.degenerate_cones, self.cones)


@dataclass(frozen=True)
class CheckReport:
    certified: bool
    stats: FanStats
    first_failure: str | None
    condition1: str  # "full" | "skipped"
    condition1_holds: bool | None
    base_facet: tuple[int, ...] | None


def ratio_str(count: int, total: int) -> str:
    """Percentage to two decimals, recomputed from exact counts."""
    if count == 0 or total == 0:
        return "0"
    q = Fraction(100 * count, total)
    d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _int_rays(ra: RayAssignment) -> list[tuple[int, ...]]:
    """The rays as primitive integer vectors, written in coordinates that
    suit the elimination: columns sorted descending by how many rays are
    nonzero in them (ties in coordinate order), and the first column
    negated when that permutation is odd.

    Bareiss elimination runs from the last column to the first and leaves
    a row untouched at every step whose pivot column is zero in it (see
    ``exactla``), so the sparsest columns, eliminated first, spare most
    row updates.  The change of coordinates has determinant +1, so every
    facet determinant, every Cramer numerator of a point built from these
    rows, and every rank is exactly that of the original coordinates.
    """
    rays = [scale_to_int(v) for v in ra.rays]
    order = sorted(range(ra.dim), key=lambda c: -sum(1 for v in rays if v[c]))
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    signs = [(-1) ** inversions] + [1] * (ra.dim - 1)
    return [tuple(s * v[c] for s, c in zip(signs, order)) for v in rays]


def _cone(rays: list[tuple[int, ...]], f: Facet) -> list[tuple[int, ...]]:
    """The integer rows of the cone of ``f``: its rays in position order."""
    return [rays[r - 1] for r in positions_of(f)]


def facet_rank(ra: RayAssignment, facet: Facet) -> int:
    """Rank of the facet's rays over the rationals."""
    return int_rank(_cone(_int_rays(ra), facet))


def classify_ridge(ra: RayAssignment, f: Facet, f2: Facet) -> RidgeReport:
    """Classify the ridge between two adjacent facets.

    Degenerate as soon as one of the two cones is rank deficient; otherwise
    the unique dependence on the 2n+1 rays decides good (same nonzero sign
    on the exchanged rays, the one leaving f positive after normalisation)
    versus bad.  Solved over the rationals, independently of the
    determinant parity that the statistics use; the tests check that
    parity against it.
    """
    shared = f & f2
    out = f & ~shared
    inn = f2 & ~shared
    if bin(out).count("1") != 1 or bin(inn).count("1") != 1:
        raise ValueError("facets are not adjacent")
    ridge = positions_of(shared)
    if facet_rank(ra, f) < ra.dim or facet_rank(ra, f2) < ra.dim:
        return RidgeReport(ridge, "degenerate", None)
    x = positions_of(out)[0]
    x2 = positions_of(inn)[0]
    cols = [ra.rays[r - 1] for r in positions_of(f)]
    coeffs = solve_unique(cols, ra.rays[x2 - 1])
    # dependence: sum coeffs * rays(f) - ray(x2) = 0, normalised so the
    # coefficient of x is positive
    cx = coeffs[positions_of(f).index(x)]
    dep = tuple(coeffs) + (Fraction(-1),)
    if cx < 0:
        dep = tuple(-c for c in dep)
    status = "good" if cx < 0 else "bad"
    return RidgeReport(ridge, status, dep)


def _stats(ra: RayAssignment) -> tuple[FanStats, dict[Facet, int], str | None]:
    """Statistics, the determinant of every facet, and the first failure:
    the ``"bad ridge (...)"`` or ``"degenerate ridge (...)"`` text of the
    least non-good ridge ``(f, g)``, f < g, in bitset order, or None.

    One flip-graph traversal, which yields each ridge once, from its
    smaller facet.  Facet determinants are memoised on first contact; one
    elimination gives the determinant and, when that is 0, the rank.  For
    a ridge between full-rank facets F, G, with x leaving F and q
    entering, Cramer's rule gives the
    coefficient of ray x in ray q, written in the rays of F, as
    (-1)^k det(G) / det(F): moving q's column from x's slot to its sorted
    place in G crosses the k ridge positions strictly between x and q.
    The ridge is good when that coefficient is negative.
    """
    rays = _int_rays(ra)
    dim = ra.dim
    dets: dict[Facet, int] = {}
    singular_ranks: list[int] = []

    def det_of(f: Facet) -> int:
        d = dets.get(f)
        if d is None:
            rows = _cone(rays, f)
            d, rank = det_rank(rows) if len(rows) == dim else (0, int_rank(rows))
            dets[f] = d
            if d == 0:
                singular_ranks.append(rank)
        return d

    bad = degenerate = ridges = 0
    least = failure = None
    for f, flips in traverse(ra.word):
        df = det_of(f)
        for x, q, g in flips:
            ridges += 1
            dg = det_of(g)
            if df == 0 or dg == 0:
                degenerate += 1
                status = "degenerate"
            else:
                between = f & g & (((1 << (x - 1)) - 1) ^ ((1 << (q - 1)) - 1))
                if (between.bit_count() % 2 == 0) != ((df > 0) == (dg > 0)):
                    continue
                bad += 1
                status = "bad"
            if least is None or (f, g) < least:
                least = (f, g)
                failure = f"{status} ridge {positions_of(f & g)}"

    stats = FanStats(
        n=ra.word.rank,
        bad_ridges=bad,
        degenerate_ridges=degenerate,
        ridges=ridges,
        degenerate_cones=len(singular_ranks),
        cones=len(dets),
        min_dimension=min(singular_ranks, default=dim),
    )
    return stats, dets, failure


def stream_statistics(ra: RayAssignment) -> FanStats:
    """Degeneracy statistics of the candidate realization, from one sweep
    of the flip graph that never stores the dual graph."""
    return _stats(ra)[0]


def condition_one(ra: RayAssignment, dets: dict[Facet, int], base: Facet) -> Facet | None:
    """The least facet other than ``base`` whose closed cone contains the
    point p = sum_i i * r_i over the rays of ``base`` (strictly inside its
    cone), or None: the base condition holds iff there is none.

    ``dets`` maps every facet, ``base`` included, to its determinant, as
    ``_stats`` builds it; every facet must be full rank.  By Cramer's
    rule, p's coefficient on the j-th ray of a facet F is det(F with row j
    replaced by p) / det(F), so F's closed cone contains p iff no such
    determinant has the sign opposite to det(F); the scan of F stops at
    the first one that does.
    """
    rays = _int_rays(ra)
    if dets[base] == 0:
        raise ValueError("base facet is rank deficient")
    point = [sum(i * row[c] for i, row in enumerate(_cone(rays, base), start=1))
             for c in range(ra.dim)]
    for f in sorted(dets):
        if f == base:
            continue
        det = dets[f]
        if det == 0:
            raise ValueError(f"cone {positions_of(f)} is rank deficient")
        rows = _cone(rays, f)
        if all(bareiss_det(rows[:j] + [point] + rows[j + 1:]) * det >= 0
               for j in range(ra.dim)):
            return f
    return None


def certify_fan(ra: RayAssignment) -> CheckReport:
    """Full certification: the ridge condition on every ridge, then the
    base condition from the greedy facet against every other facet in
    bitset order.

    A closed cone containing the base point has an open cone meeting the
    open base cone near it, hence the wording of that failure.  A complex
    without ridges has one facet, the base; if its cone is rank deficient,
    that is the failure.
    """
    stats, dets, failure = _stats(ra)
    base = greedy_facet(ra.word)
    if failure is None and dets[base] == 0:
        failure = f"degenerate cone {positions_of(base)}"
    if failure is not None:
        return CheckReport(False, stats, failure, "skipped", None, None)
    other = condition_one(ra, dets, base)
    holds = other is None
    first = None if holds else f"open cones of base and {positions_of(other)} intersect"
    return CheckReport(holds, stats, first, "full", holds, positions_of(base))


# (table label, FanStats attribute) in the order of the reference tables
STAT_ROWS = (
    ("# bad ridges", "bad_ridges"),
    ("# degenerate ridges", "degenerate_ridges"),
    ("# ridges", "ridges"),
    ("ratio (%)", "ridge_ratio"),
    ("# degenerate cones", "degenerate_cones"),
    ("# cones", "cones"),
    ("ratio (%)", "cone_ratio"),
    ("minimal dimension", "min_dimension"),
)


def format_stats_table(columns: list[FanStats]) -> str:
    """Fixed-column table mirroring the reference layout, one column per n."""
    headers = ["n"] + [str(s.n) for s in columns]
    body = [[label] + [str(getattr(s, row)) for s in columns] for label, row in STAT_ROWS]
    rows = [headers] + body
    widths = [max(len(r[c]) for r in rows) for c in range(len(headers))]
    out = []
    for r in rows:
        out.append("  ".join(x.rjust(w) if i else x.ljust(w)
                             for i, (x, w) in enumerate(zip(r, widths))))
    return "\n".join(out) + "\n"
