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
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction

from .exactla import (
    bareiss_det,
    int_rank,
    kernel,
    scale_to_int,
    solve_unique,
)
from .subword import ComplexIndex, Facet, greedy_facet, positions_of, root_configuration
from .rays import RayAssignment

__all__ = [
    "RidgeReport",
    "FanStats",
    "CheckReport",
    "kernel",
    "facet_rank",
    "classify_ridge",
    "condition_one",
    "fan_statistics",
    "stream_statistics",
    "stream_certify",
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
    return [scale_to_int(v) for v in ra.rays]


def facet_rank(ra: RayAssignment, facet: Facet) -> int:
    """Rank of the facet's rays over the rationals."""
    rows = [list(scale_to_int(ra.rays[r - 1])) for r in positions_of(facet)]
    return int_rank(rows)


def classify_ridge(ra: RayAssignment, f: Facet, f2: Facet) -> RidgeReport:
    """Classify the ridge between two adjacent facets.

    Degenerate as soon as one of the two cones is rank deficient; otherwise
    the unique dependence on the 2n+1 rays decides good (same nonzero sign
    on the exchanged rays, the one leaving f positive after normalisation)
    versus bad.
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


def _facet_dets(ra: RayAssignment, facets) -> list[int]:
    rays = _int_rays(ra)
    dets = []
    for f in facets:
        rows = [list(rays[r - 1]) for r in positions_of(f)]
        dets.append(bareiss_det(rows) if len(rows) == ra.dim else 0)
    return dets


def _ridge_chunk(args) -> tuple[int, int]:
    lo, hi = args
    index, dets = _PARALLEL_STATE
    bad = degenerate = 0
    facets = index.facets
    for ia, ib, shared in index.dual_edges[lo:hi]:
        if dets[ia] == 0 or dets[ib] == 0:
            degenerate += 1
            continue
        fa, fb = facets[ia], facets[ib]
        x = positions_of(fa & ~shared)[0]
        x2 = positions_of(fb & ~shared)[0]
        shift = abs(positions_of(fa).index(x) - positions_of(fb).index(x2))
        cx_sign = (-1) ** shift * (1 if dets[ib] > 0 else -1) * (1 if dets[ia] > 0 else -1)
        if cx_sign > 0:
            bad += 1
    return bad, degenerate


_PARALLEL_STATE: tuple = ()


def _init_parallel(state):
    global _PARALLEL_STATE
    _PARALLEL_STATE = state


def _ridge_sign_counts(ra: RayAssignment, index: ComplexIndex,
                       dets: list[int], threads: int = 1) -> tuple[int, int]:
    """(bad, degenerate) ridge counts.

    For a ridge between full-rank facets F, F', the exchanged-ray
    coefficient equals, up to positive factors, det(F') placed in the
    leaving column of F times a parity for moving the entering column to
    its sorted slot; good means negative.

    With threads > 1 the edge list is cut into chunks processed by worker
    processes; the counts are sums, so the result cannot depend on the
    scheduling.
    """
    total = len(index.dual_edges)
    if threads <= 1 or total < 2000:
        _init_parallel((index, dets))
        return _ridge_chunk((0, total))
    import multiprocessing as mp

    step = -(-total // (4 * threads))
    chunks = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    with mp.Pool(threads, initializer=_init_parallel, initargs=((index, dets),)) as pool:
        parts = pool.map(_ridge_chunk, chunks)
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def fan_statistics(ra: RayAssignment, index: ComplexIndex, threads: int = 1) -> FanStats:
    """Degeneracy statistics of the candidate realization."""
    return _stats(ra, index, threads)[0]


def stream_statistics(ra: RayAssignment) -> FanStats:
    """Degeneracy statistics without materializing the dual graph.

    Single flip-graph sweep: facet determinants are memoized on first
    contact and every ridge is processed from its smaller endpoint as the
    traversal passes it.  Equivalent to :func:`fan_statistics` (checked in
    tests); meant for the largest instances, where storing tens of
    millions of ridge records would dominate memory.
    """
    return _stream(ra)[0]


def _stream(ra: RayAssignment) -> tuple[FanStats, dict[Facet, int]]:
    """Streamed statistics plus the determinant of every facet, keyed by
    facet in traversal order."""
    w = ra.word
    p = len(w)
    rays = _int_rays(ra)
    dim = ra.dim

    dets: dict[Facet, int] = {}

    def det_of(f: Facet) -> int:
        d = dets.get(f)
        if d is None:
            rows = [list(rays[r - 1]) for r in positions_of(f)]
            d = bareiss_det(rows) if len(rows) == dim else 0
            dets[f] = d
        return d

    bad = degenerate = ridges = 0
    seed = greedy_facet(w)
    seen = {seed}
    frontier = [seed]
    while frontier:
        next_frontier = []
        for f in frontier:
            roots = root_configuration(w, f)
            partner_at = {}
            for q in range(1, p + 1):
                if not f >> (q - 1) & 1:
                    a, b = roots[q - 1]
                    partner_at[(a, b) if a < b else (b, a)] = q
            pf = positions_of(f)
            df = det_of(f)
            for x in pf:
                a, b = roots[x - 1]
                q = partner_at[(a, b) if a < b else (b, a)]
                g = f & ~(1 << (x - 1)) | 1 << (q - 1)
                if g not in seen:
                    seen.add(g)
                    next_frontier.append(g)
                if f < g:
                    ridges += 1
                    dg = det_of(g)
                    if df == 0 or dg == 0:
                        degenerate += 1
                        continue
                    shift = abs(pf.index(x) - positions_of(g).index(q))
                    if (-1) ** shift * (1 if df > 0 else -1) * (1 if dg > 0 else -1) > 0:
                        bad += 1
        frontier = next_frontier

    deg_cones = 0
    min_dim = dim
    for f, d in dets.items():
        if d == 0:
            deg_cones += 1
            rk = int_rank([list(rays[r - 1]) for r in positions_of(f)])
            min_dim = min(min_dim, rk)
    stats = FanStats(
        n=w.rank,
        bad_ridges=bad,
        degenerate_ridges=degenerate,
        ridges=ridges,
        degenerate_cones=deg_cones,
        cones=len(seen),
        min_dimension=min_dim,
    )
    return stats, dets


def stream_certify(ra: RayAssignment, base: Facet | None = None) -> CheckReport:
    """Certification for instances too large to index: streamed ridge
    statistics, then the base condition over the facets and determinants
    the stream kept."""
    stats, dets = _stream(ra)
    if stats.bad_ridges or stats.degenerate_ridges:
        return CheckReport(False, stats, "ridge condition fails", "skipped", None, None)
    return _certify_base(ra, stats, dets.keys(), dets.values(), base)


def _stats(ra: RayAssignment, index: ComplexIndex, threads: int = 1) -> tuple[FanStats, list[int]]:
    dets = _facet_dets(ra, index.facets)
    bad, degen = _ridge_sign_counts(ra, index, dets, threads)
    rays = _int_rays(ra)
    deg_cones = 0
    min_dim = ra.dim
    for f, det in zip(index.facets, dets):
        if det == 0:
            deg_cones += 1
            rk = int_rank([list(rays[r - 1]) for r in positions_of(f)])
            min_dim = min(min_dim, rk)
    stats = FanStats(
        n=ra.word.rank,
        bad_ridges=bad,
        degenerate_ridges=degen,
        ridges=index.n_ridges,
        degenerate_cones=deg_cones,
        cones=index.n_facets,
        min_dimension=min_dim,
    )
    return stats, dets


def condition_one(ra: RayAssignment, facets, base: Facet,
                  dets=None) -> tuple[bool, Facet | None]:
    """Whether the point p = sum_i i * r_i over the rays of ``base``
    (strictly inside its cone) lies in no other facet's closed cone;
    returns the first facet containing p as witness otherwise.

    ``facets`` is a facet iterable or an enumerated complex; ``dets``, when
    given, holds each facet's determinant in the same order.  Every facet
    must be full rank.  By Cramer's rule, p's coefficient on the j-th ray
    of a facet F is det(F with row j replaced by p) / det(F), so F's
    closed cone contains p iff no such determinant has the sign opposite
    to det(F); the scan of F stops at the first one that does.
    """
    if isinstance(facets, ComplexIndex):
        facets = facets.facets
    rays = _int_rays(ra)
    base_rows = [list(rays[r - 1]) for r in positions_of(base)]
    if len(base_rows) != ra.dim or bareiss_det(base_rows) == 0:
        raise ValueError("base facet is rank deficient")
    point = [sum(i * row[c] for i, row in enumerate(base_rows, start=1))
             for c in range(ra.dim)]
    if dets is None:
        facets = list(facets)
        dets = _facet_dets(ra, facets)
    for f, det in zip(facets, dets):
        if f == base:
            continue
        if det == 0:
            raise ValueError(f"cone {positions_of(f)} is rank deficient")
        rows = [list(rays[r - 1]) for r in positions_of(f)]
        for j in range(ra.dim):
            if bareiss_det(rows[:j] + [point] + rows[j + 1:]) * det < 0:
                break
        else:
            return False, f
    return True, None


def _certify_base(ra: RayAssignment, stats: FanStats, facets, dets,
                  base: Facet | None) -> CheckReport:
    """Report of the base condition, once the ridge condition holds.

    A closed cone containing p has an open cone meeting the open base cone
    near p, hence the wording of the failure."""
    if base is None:
        base = greedy_facet(ra.word)
    holds, witness = condition_one(ra, facets, base, dets)
    first = None if holds else f"open cones of base and {positions_of(witness)} intersect"
    return CheckReport(holds, stats, first, "full", holds, positions_of(base))


def certify_fan(ra: RayAssignment, index: ComplexIndex,
                base: Facet | None = None, threads: int = 1) -> CheckReport:
    """Full certification: ridge condition on every ridge, then the base
    condition from ``base`` (the greedy facet by default)."""
    if ra.word != index.word:
        raise ValueError("assignment and index are for different words")
    if len(ra.rays) != len(index.word):
        raise ValueError("one ray per position required")
    stats, dets = _stats(ra, index, threads)
    if stats.bad_ridges or stats.degenerate_ridges:
        first = None
        for ia, ib, shared in index.dual_edges:
            rep = classify_ridge(ra, index.facets[ia], index.facets[ib])
            if rep.status != "good":
                first = f"{rep.status} ridge {rep.ridge}"
                break
        return CheckReport(False, stats, first, "skipped", None, None)
    return _certify_base(ra, stats, index.facets, dets, base)


_ROWS = (
    ("# bad ridges", lambda s: str(s.bad_ridges)),
    ("# degenerate ridges", lambda s: str(s.degenerate_ridges)),
    ("# ridges", lambda s: str(s.ridges)),
    ("ratio (%)", lambda s: s.ridge_ratio),
    ("# degenerate cones", lambda s: str(s.degenerate_cones)),
    ("# cones", lambda s: str(s.cones)),
    ("ratio (%)", lambda s: s.cone_ratio),
    ("minimal dimension", lambda s: str(s.min_dimension)),
)


def format_stats_table(columns: list[FanStats]) -> str:
    """Fixed-column table mirroring the reference layout, one column per n."""
    headers = ["n"] + [str(s.n) for s in columns]
    body = [[label] + [get(s) for s in columns] for label, get in _ROWS]
    rows = [headers] + body
    widths = [max(len(r[c]) for r in rows) for c in range(len(headers))]
    out = []
    for r in rows:
        out.append("  ".join(x.rjust(w) if i else x.ljust(w)
                             for i, (x, w) in enumerate(zip(r, widths))))
    return "\n".join(out) + "\n"
