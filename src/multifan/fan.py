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

Each fact is decided once, in one walk of the flip graph rooted at the
base facet (``subword.traverse``): a facet's determinant when the walk
enters it, as one field of its parent's tableau row of the entering
ray, and for the base facet and every child of a singular facet by
exchanges from the unit matrix or from the nearest regular cone, one
position at a time; a ridge's status
at the later visited of its two facets, against the determinant signs
of the facets visited before; the first failure when the least failing
ridge is classified; and the base condition, from the base point's
tableau row, its Cramer numerators, by one sign test on the whole row.
A cone's tableau row of a ray, or of the base point, holds its value on
each column of the cone's adjugate, in the slot of that column's
position, packed into one int (``_Layout``) of d fields wide enough by
Hadamard's bound (``_width``), so that the exchange deriving it is one
exact division of that int, as in the integer pivots of lrs (Avis).  No
facet is visited twice, and the walk keeps only the signs of the facets
visited and the tableau rows read along its current path.
``condition_one`` is the point location from scratch: it shares nothing
with the walk, and the tests compare the walk against it.

No command calls ``classify_ridge`` or ``condition_one``: they are test
oracles, and stay here only because the benchmark harness in
``perfbench/`` resolves them by name (``tests/test_perfbench_names.py``);
they move to the tests when the benchmark stops tracing them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .exactla import bareiss_det, exchange_column, int_rank, scale_to_int, solve_unique
from .subword import Facet, greedy_facet, positions_of, traverse

if TYPE_CHECKING:
    from .rays import RayAssignment

__all__ = [
    "RidgeReport",
    "FanStats",
    "CheckReport",
    "STAT_ROWS",
    "classify_ridge",
    "condition_one",
    "stream_statistics",
    "certify_fan",
    "format_stats_table",
    "ratio_str",
]


class RidgeReport(NamedTuple):
    ridge: tuple[int, ...]
    status: str  # "good" | "bad" | "degenerate"
    # dependence over the rays of f then the entering ray, when unique
    dependence: tuple[Fraction, ...] | None


class FanStats(NamedTuple):
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


class CheckReport(NamedTuple):
    certified: bool
    stats: FanStats
    first_failure: str | None
    condition1: str  # "full" | "skipped"
    condition1_holds: bool | None
    base_facet: tuple[int, ...] | None


def ratio_str(count: int, total: int) -> str:
    """Percentage to two decimals, recomputed from exact counts and
    rounded half up."""
    if count == 0 or total == 0:
        return "0"
    cents = (20000 * count + total) // (2 * total)
    return f"{cents // 100}.{cents % 100:02d}"


def _int_rays(ra: RayAssignment) -> list[tuple[int, ...]]:
    """The rays as integer vectors in content-free coordinates: each ray
    made primitive by ``scale_to_int``, then each coordinate divided by its
    content, the gcd of its entries over all the rays (1 for a zero
    coordinate).  The first is a positive rescale of each ray, the second
    a positive diagonal change of basis D of the ambient space: every
    determinant and every Cramer numerator of the point p = sum_i i r_i is
    divided by the same positive product of the contents, and p is carried
    to p D^-1.  So neither changes a rank, a sign, or which cones contain
    the point; the rays are not primitive afterwards, and making them
    primitive again would move p."""
    rays = [scale_to_int(v) for v in ra.rays]
    content = [math.gcd(*column) or 1 for column in zip(*rays)]
    return [tuple(a // g for a, g in zip(v, content)) for v in rays]


def _cone(rays: list[tuple[int, ...]], f: Facet) -> list[tuple[int, ...]]:
    """The integer rows of the cone of ``f``: its rays in position order."""
    return [rays[r - 1] for r in positions_of(f)]


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
    rays = _int_rays(ra)
    if int_rank(_cone(rays, f)) < ra.dim or int_rank(_cone(rays, f2)) < ra.dim:
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


# facets between two self-checks of the carried determinants
SELF_CHECK_EVERY = 4096


def _width(rays: list[tuple[int, ...]], d: int) -> int:
    """The field width K of a walk's tableau rows.  Every field is a
    d x d determinant whose rows are rays or unit rows, or a Cramer
    numerator p . C = sum_i i (r_{b_i} . C) over the base's rays b_i, so
    it is at most d (d + 1) / 2 B in magnitude, with B the lesser of the
    two forms of Hadamard's bound: the product of the d largest row norms
    (1 for a unit row), and the product over the coordinates of the
    column norms, which take the d largest squares of the coordinate and
    at most one 1 from a unit row.  One more bit holds the sign."""
    norms = sorted([math.isqrt(s - 1) + 1 if s else 0 for s in (sum(a * a for a in v) for v in rays)]
                   + [1] * d, reverse=True)
    by_rows = math.prod(norms[:d])
    by_columns = math.prod(math.isqrt(sum(sorted((a * a for a in column), reverse=True)[:d])) + 1
                           for column in zip(*rays))
    return (d * (d + 1) // 2 * min(by_rows, by_columns)).bit_length() + 1


class _Layout:
    """The packing of one walk's tableau rows, each one int of d fields:
    the field of slot i holds a signed value v_i at bits K i to
    K (i + 1) - 1, K = ``width``, and the row is the int sum_i v_i 2^(K i).
    A linear combination of rows is the same combination of their ints,
    field by field, and a field reads back exactly while |v_i| < 2^(K - 1):
    adding ``bias``, 2^(K - 1) in every field, makes each one a K-bit
    number and the int nonnegative.  So one test on the whole int tells
    whether every field of a row is >= 0: exactly when no field has its
    top bit set in the int itself, since the lowest negative field has no
    borrow from below, and its K bits read v_i + 2^K >= 2^(K - 1)."""

    __slots__ = ("width", "bias", "mask", "half")

    def __init__(self, d: int, width: int):
        self.width = width
        self.mask = (1 << width) - 1
        self.half = 1 << (width - 1)
        self.bias = self.pack([self.half] * d)

    def pack(self, values) -> int:
        return sum(v << (self.width * i) for i, v in enumerate(values))

    def read(self, row: int, shift: int) -> int:
        """The field at bit ``shift``, K times its slot."""
        return ((row + self.bias) >> shift & self.mask) - self.half

    def nonnegative(self, row: int) -> bool:
        return not row & self.bias


def _odd(f: Facet, x: int, q: int) -> int:
    """The parity of the positions of ``f`` strictly between x and q, for x
    not in ``f``."""
    return (f & (((1 << (x - 1)) - 1) ^ ((1 << (q - 1)) - 1)) & ~(1 << (q - 1))).bit_count() & 1


class _Cone:
    """The matrix of the rays of the positions ``f``, as rows in position
    order: its determinant D and a cache of its tableau rows.  With C[c]
    the adjugate column of position c, the row R[w] of a ray w, or of the
    base point p for w None, holds r_w . C[c] in the slot of each position
    c, packed into one int by the walk's ``_Layout``; ``shifts`` maps each
    position to K times its slot.  The row of a position of the cone is D
    in its slot and 0 elsewhere: it is never stored.

    A cone made by ``exchanged`` records the flip x -> q and its sign
    ``s`` that made it from its regular ``parent``: q holds x's slot, and
    the ``pivot`` Q, set when the cone is made, is the parent's row of q
    less D_P in that slot.  Every field that the walk reads is read from
    the cone's own rows, each derived from the parent's on first use
    (``row``).  The unit cone (``_unit``) starts with every row.  A
    singular cone without ``q`` has no row, and its ``parent`` is the last
    regular cone of its ``_derive`` route, to exchange its children from."""

    __slots__ = ("f", "det", "rows", "shifts", "layout", "parent", "x", "q", "s", "pivot")

    def __init__(self, f: Facet, det: int, rows: dict, shifts: dict[int, int] | None = None,
                 layout: _Layout | None = None, parent: _Cone | None = None):
        self.f, self.det, self.rows, self.shifts, self.layout, self.parent = f, det, rows, shifts, layout, parent
        self.q = None

    def row(self, w: int | None) -> int:
        """R[w], for w not a position of the cone, from the parent's rows:
        R[x] = (D << K slot(q)) - s Q, the one row that needs no division,
        and for any other w ``exchange_column``(R_P[w], Q, s t, D, D_P), t
        the field of q's slot in R_P[w], which leaves s t there."""
        row = self.rows.get(w)
        if row is None:
            parent = self.parent
            shift = self.shifts[self.q]
            if w == self.x:
                row = (self.det << shift) - self.s * self.pivot
            else:
                up = parent.row(w)
                row = exchange_column(up, self.pivot, self.s * self.layout.read(up, shift), self.det, parent.det)
            self.rows[w] = row
        return row

    def exchanged(self, x: int, q: int) -> _Cone:
        """This regular cone with position x exchanged for q, which takes
        x's slot: det' = s (r_q . C[x]), the field of that slot in R[q],
        where s moves q's row from x's place to its own across the
        positions strictly between them."""
        f = self.f & ~(1 << (x - 1)) | 1 << (q - 1)
        shifts = self.shifts.copy()
        shift = shifts[q] = shifts.pop(x)
        cone = _Cone(f, 0, {}, shifts, self.layout, self)
        cone.x, cone.q, cone.s = x, q, -1 if _odd(f, x, q) else 1
        row = self.row(q)
        cone.det = cone.s * self.layout.read(row, shift)
        cone.pivot = row - (self.det << shift)
        return cone

    def holds_point(self) -> bool:
        """Whether the closed cone of this regular cone, exchanged from a
        regular parent, holds p: whether no Cramer numerator has the sign
        opposite to D, that is every field of sign(D) R[p] is >= 0, one
        test on the whole row."""
        row = self.row(None)
        return self.layout.nonnegative(row if self.det > 0 else -row)

    def route_rank(self) -> int:
        """The rank d - j of this singular cone, j the positions of its
        regular ``parent`` that it lacks: the d - j rays it keeps span the
        one that an exchange brought in, or every ray a ``_derive`` left."""
        return len(self.parent.shifts) - (self.parent.f & ~self.f).bit_count()


def _unit(rays: list[tuple[int, ...]], point: list[int]) -> _Cone:
    """The unit matrix, as the cone of the d positions past the m rays':
    row and column e_j at position m + j, in slot j - 1, of determinant 1,
    whose tableau rows are the packed rays and the packed point p, since
    r . e_j = r[j].  The walk's ``_Layout`` is made here, with the width
    that ``_width`` bounds."""
    m, d = len(rays), len(point)
    layout = _Layout(d, _width(rays, d))
    rows = {i: layout.pack(r) for i, r in enumerate(rays, 1)}
    rows[None] = layout.pack(point)
    shifts = {m + 1 + j: layout.width * j for j in range(d)}
    return _Cone(((1 << d) - 1) << m, 1, rows, shifts, layout)


def _stats(ra: RayAssignment) -> tuple[FanStats, str | None, Facet | None]:
    """Statistics, the first failure and the base condition's witness, from
    one walk of the flip graph rooted at the base facet (``traverse``).

    The first failure is the ``"bad ridge (...)"`` or ``"degenerate ridge
    (...)"`` text of the least non-good ridge ``(f, g)``, f < g, in bitset
    order, else ``"degenerate cone (...)"`` for a lone singular facet.  The
    witness, read only without a failure, is ``condition_one``'s.

    Let F have determinant D and adjugate columns C[c], so that r . C[c]
    is det F with the row of position c replaced by r.  A flip x -> q
    enters a child G of determinant D' = s (r_q . C[x]), where s = (-1)^k
    moves q's row across the k positions strictly between x and q.  G's
    columns are C'[q] = s C[x] and (D' C[c] - (r_q . C[c]) C'[q]) / D.
    The walk carries that change row by row, as in the integer pivots of
    lrs (Avis): the tableau row R[w] of a ray w, or of the base point p,
    holds the d values r_w . C[c], one in the slot of each position c,
    packed as the fields of one int (``_Layout``).  A position keeps its
    slot while it is in the cone, and q takes x's slot.  So D' and every
    scalar of an exchange is one field read, and the row of G is one
    exact division of an int (``exchange_column``) against the pivot Q =
    R[q] - D in x's slot, computed once per cone; the row of x needs no
    division.  Each field is a d x d determinant over the rays and unit
    rows, or p . C[c], a sum of i times such determinants, so it fits the
    width that ``_width`` takes from Hadamard's bound; only Q, never
    read, may hold a field past it.  A cone's own positions have the rows
    D e_c, never stored.  Each cone reads its fields from its own rows,
    each derived from its parent's when first read and then kept.  A
    singular F cannot divide by D, so every child of F is exchanged by
    ``_derive`` from the regular cone that F came from.

    The walk starts at the unit matrix (``_unit``): the rows e_1..e_d at d
    positions past the word's last, of determinant 1, whose tableau rows
    are the rays and p themselves.  ``_derive`` exchanges the base's rays
    in, one position at a time, and exactness carries p . C[r_i] = i D
    to the base's i-th position r_i.

    Each singular cone is ranked by its route (``_Cone.route_rank``).  A
    facet of other than d rays is singular, and stuck on its route.

    A ridge is classified at the later visited of its two facets, against
    the signs of those visited before: with x leaving F and q entering G,
    the coefficient of ray x in ray q is (-1)^k det(G) / det(F), good when
    negative.  Until the first failing ridge, a facet's closed cone
    contains p iff no numerator has the sign opposite to its determinant,
    that is iff every field of sign(D') R'[p] is >= 0, one test on the
    whole int (``_Cone.holds_point``); every cone on the path is then
    regular.  Every ``SELF_CHECK_EVERY``-th facet is checked from scratch
    (``_self_check``), one ray's field among its scalars.
    """
    rays = _int_rays(ra)
    signs: dict[Facet, int] = {}
    sign_of = signs.get
    # below[r]: the positions before r
    below = [0] + [(1 << r) - 1 for r in range(len(ra.word))]
    path: list[_Cone] = []
    bad = degenerate = ridges = singular = 0
    least = failure = witness = point = None
    rank = ra.dim
    for count, (g, flips, entry, depth) in enumerate(traverse(ra.word)):
        del path[depth:]
        if entry is None:
            point = [sum(i * row[c] for i, row in enumerate(_cone(rays, g), 1)) for c in range(ra.dim)]
            cone = _derive(_unit(rays, point), g)
            if not cone.det:
                point = None  # no point strictly inside a singular base
        else:
            x, q, _ = entry
            parent = path[-1]
            cone = parent.exchanged(x, q) if parent.det else _derive(parent.parent, g)
        det = cone.det
        sign = (det > 0) - (det < 0)
        if not sign:
            singular += 1
            rank = min(rank, cone.route_rank())
        for y, r, h in flips:
            other = sign_of(h)
            if other is None:
                continue
            ridges += 1
            if not (sign and other):
                degenerate += 1
                status = "degenerate"
            else:
                between = g & h & (below[y] ^ below[r])
                if between.bit_count() & 1 == (sign == other):
                    continue
                bad += 1
                status = "bad"
            pair = (g, h) if g < h else (h, g)
            if least is None or pair < least:
                least = pair
                failure = f"{status} ridge {positions_of(g & h)}"
        signs[g] = sign
        locate = failure is None and point is not None
        if locate and entry is not None and (witness is None or g < witness):
            if cone.holds_point():
                witness = g
        if count % SELF_CHECK_EVERY == 0:
            _self_check(rays, cone, point if locate else None)
        path.append(cone)
    if failure is None and not signs[g]:
        # the walk's only facet, the base, is singular
        failure = f"degenerate cone {positions_of(g)}"
    stats = FanStats(
        n=ra.word.rank,
        bad_ridges=bad,
        degenerate_ridges=degenerate,
        ridges=ridges,
        degenerate_cones=singular,
        cones=len(signs),
        min_dimension=rank,
    )
    return stats, failure, witness


def _derive(base: _Cone, g: Facet) -> _Cone:
    """The cone of ``g``, of any size, exchanged from the regular cone
    ``base`` one position at a time: a position x that the cone has and
    ``g`` lacks is swapped for a q that ``g`` has and the cone lacks, the
    first q whose row R[q] has a nonzero field in the slot of some x, so
    that every step is to a regular cone.  The steps stop when either side
    runs out or no pair pivots.  If positions are left, every ray of ``g``
    left out has field 0 on the slots of the j positions of the last
    regular cone C that ``g`` lacks, so lies in the span of the d - j it
    keeps: ``g`` has rank d - j, determinant 0, no rows and C as parent."""
    outs = list(positions_of(base.f & ~g))
    ins = list(positions_of(g & ~base.f))
    cone = base
    read = base.layout.read
    while outs and ins:
        for q in ins:
            row = cone.row(q)
            x = next((x for x in outs if read(row, cone.shifts[x])), None)
            if x is not None:
                break
        else:
            break
        outs.remove(x)
        ins.remove(q)
        cone = cone.exchanged(x, q)
    # no swap when g is a cone of the route to its parent
    return _Cone(g, 0, {}, parent=cone) if outs or ins else cone


def _self_check(rays, cone: _Cone, point):
    """Recompute from scratch the determinant of ``cone`` (0 for other
    than d rays), its rank if it is singular, and, in the slot of its first
    position, the field of its row of the first position outside the cone
    and, with ``point``, the Cramer numerator, the field of its row of p:
    a field that the walk's width cannot hold reads back wrong."""
    rows = _cone(rays, cone.f)
    where = positions_of(cone.f)
    d = len((cone.parent or cone).shifts)
    if (bareiss_det(rows) if len(rows) == d else 0) != cone.det:
        raise ArithmeticError(f"carried determinant of cone {where} is wrong")
    if not cone.det and cone.route_rank() != int_rank(rows):
        raise ArithmeticError(f"carried rank of cone {where} is wrong")
    if not rows:
        return

    def field(w):
        return cone.layout.read(cone.row(w), cone.shifts[where[0]])

    if point is not None and bareiss_det([point] + rows[1:]) != field(None):
        raise ArithmeticError(f"carried Cramer numerator of cone {where} is wrong")
    i = (~cone.f & (cone.f + 1)).bit_length()
    if i <= len(rays) and cone.q is not None:
        if bareiss_det([rays[i - 1]] + rows[1:]) != field(i):
            raise ArithmeticError(f"carried tableau field of ray {i} on cone {where} is wrong")


def stream_statistics(ra: RayAssignment) -> FanStats:
    """Degeneracy statistics of the candidate realization, from one sweep
    of the flip graph that never stores the dual graph."""
    return _stats(ra)[0]


def condition_one(ra: RayAssignment, facets, base: Facet) -> Facet | None:
    """The least of ``facets`` other than ``base`` whose closed cone
    contains the point p = sum_i i * r_i over the rays of ``base``
    (strictly inside its cone), or None: the base condition holds iff
    there is none.

    The reference for the walk's point location in ``_stats``, from
    scratch: every facet, ``base`` included, must be full rank.  By
    Cramer's rule, p's coefficient on the j-th ray of a facet F is det(F
    with row j replaced by p) / det(F), so F's closed cone contains p iff
    no such determinant has the sign opposite to det(F); the scan of F
    stops at the first one that does.
    """
    rays = _int_rays(ra)
    rows = _cone(rays, base)
    # every facet has as many rays as the base
    if len(rows) != ra.dim or bareiss_det(rows) == 0:
        raise ValueError("base facet is rank deficient")
    point = [sum(i * row[c] for i, row in enumerate(rows, start=1)) for c in range(ra.dim)]
    for f in sorted(facets):
        if f == base:
            continue
        rows = _cone(rays, f)
        det = bareiss_det(rows)
        if det == 0:
            raise ValueError(f"cone {positions_of(f)} is rank deficient")
        if all(bareiss_det(rows[:j] + [point] + rows[j + 1:]) * det >= 0
               for j in range(ra.dim)):
            return f
    return None


def certify_fan(ra: RayAssignment) -> CheckReport:
    """Full certification from one walk (``_stats``): the ridge condition
    on every ridge, and, if that holds, the base condition from the greedy
    facet, whose witness is the least other facet containing its point.

    A closed cone containing the base point has an open cone meeting the
    open base cone near it, hence the wording of that failure.  A complex
    without ridges has one facet, the base; if its cone is rank deficient,
    that is the failure.
    """
    stats, failure, other = _stats(ra)
    if failure is not None:
        return CheckReport(False, stats, failure, "skipped", None, None)
    holds = other is None
    first = None if holds else f"open cones of base and {positions_of(other)} intersect"
    return CheckReport(holds, stats, first, "full", holds, positions_of(greedy_facet(ra.word)))


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
