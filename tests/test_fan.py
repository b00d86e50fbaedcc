import collections
import functools
import hashlib
import itertools
import math
import random
import tracemalloc
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multifan import exactla, fan
from multifan.fan import (
    _stats,
    certify_fan,
    classify_ridge,
    condition_one,
    format_stats_table,
    ratio_str,
    stream_statistics,
)
from multifan.rays import RayAssignment, build_rays
from multifan.subword import bitset_of, greedy_facet, positions_of
from multifan.words import Word, parse_word

from conftest import (
    DOUBLE_COVER_ORDER,
    certify_from_scratch,
    double_cover_rays,
    flip_graph,
    get_index,
    in_dimension,
    mirror,
    orientations,
    parent_of,
    rotate,
    walk_records,
    words_rotated_or_mirrored,
    wrap,
)


def decimal_ratio_str(count: int, total: int) -> str:
    """Reference for ``ratio_str``: the exact percentage as a Decimal,
    quantized to two places, half up."""
    if count == 0 or total == 0:
        return "0"
    q = Fraction(100 * count, total)
    d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def test_ratio_str():
    assert ratio_str(0, 252) == "0"
    assert ratio_str(11, 252) == "4.37"
    assert ratio_str(282, 2376) == "11.87"
    assert ratio_str(6026814, 29695328) == "20.30"
    # every count of small totals, and counts near halves and ends of
    # totals near the n=8 ridge count
    pairs = [(c, t) for t in range(1, 401) for c in range(t + 1)]
    for t in range(29695320, 29695340):
        for c in (1, 1484766, 1484767, 6026814, t // 8, t // 2, t // 2 + 1, t - 1, t):
            pairs.append((c, t))
    for c, t in pairs:
        assert ratio_str(c, t) == decimal_ratio_str(c, t), (c, t)


def cone_rank(ra: RayAssignment, f: int) -> int:
    """Rank of the facet's rays over the rationals."""
    return exactla.int_rank([exactla.scale_to_int(ra.rays[r - 1]) for r in positions_of(f)])


def test_facet_rank_pattern_n1():
    ra = build_rays("pattern", 1)
    assert cone_rank(ra, bitset_of([1, 2])) == 2
    assert cone_rank(ra, bitset_of([2, 3])) == 2


def test_classify_ridge_pattern_n1():
    ra = build_rays("pattern", 1)
    ridges = flip_graph(ra.word)[1]
    for f, g in ridges:
        rep = classify_ridge(ra, f, g)
        assert rep.status == "good"
        # normalised dependence has positive weight on both exchanged rays
        assert rep.dependence[-1] > 0
    # symmetry in the two facets
    for f, g in ridges:
        assert classify_ridge(ra, f, g).status == classify_ridge(ra, g, f).status


def test_classify_ridge_rejects_non_adjacent():
    ra = build_rays("pattern", 1)
    with pytest.raises(ValueError):
        classify_ridge(ra, bitset_of([1, 2]), bitset_of([1, 2]))


def test_naive_n3_degeneracies():
    stats = stream_statistics(build_rays("naive", 3))
    assert stats.degenerate_ridges == 11
    assert stats.degenerate_cones == 2
    assert stats.bad_ridges == 0
    assert stats.min_dimension == 5
    # 2 deficient cones of 84, sharing one ridge: 6 + 6 - 1 = 11
    assert stats.cones == 84


def test_naive_n4_column():
    stats = stream_statistics(build_rays("naive", 4))
    assert (stats.bad_ridges, stats.degenerate_ridges, stats.degenerate_cones,
            stats.min_dimension) == (0, 282, 48, 6)


def test_condition_one_orthants():
    # base = positive quadrant, other = negative quadrant: disjoint
    word = Word(1, (1, 1, 1, 1))
    rays = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))
    ra = RayAssignment(word, rays, 2)
    facets = [bitset_of([1, 2]), bitset_of([3, 4])]
    assert condition_one(ra, facets, bitset_of([1, 2])) is None


def test_condition_one_pattern():
    for n in (1, 2, 3):
        ra = build_rays("pattern", n)
        assert condition_one(ra, get_index(2, n).facets, greedy_facet(ra.word)) is None
    # any full-rank base works; {1, 2} at n=1 spans the plane and the other
    # two facets avoid its interior
    ra = build_rays("pattern", 1)
    assert condition_one(ra, get_index(2, 1).facets, bitset_of([1, 2])) is None


def test_certify_pattern_small():
    for n in (1, 2, 3):
        rep = certify_fan(build_rays("pattern", n))
        assert rep.certified
        assert rep.condition1 == "full"
        assert rep.stats.min_dimension == 2 * n


def test_certify_rejects_bad_sets():
    ra = build_rays("naive", 3)
    rep = certify_fan(ra)
    assert not rep.certified
    assert rep.first_failure.startswith("degenerate ridge")
    assert rep.condition1 == "skipped"
    # point location refuses a singular cone, as base or as another facet
    facets = get_index(2, 3).facets
    singular = min(f for f in facets if cone_rank(ra, f) < ra.dim)
    with pytest.raises(ValueError, match="base facet is rank deficient"):
        condition_one(ra, facets, singular)
    with pytest.raises(ValueError, match=r"cone \(.*\) is rank deficient"):
        condition_one(ra, facets, greedy_facet(ra.word))


def test_fixed_53_certifies_n3():
    rep = certify_fan(build_rays("fixed:5,3", 3))
    assert rep.certified


def test_double_cover_fails_base_condition():
    loday = build_rays("loday", 2)
    by_angle = sorted(range(1, 6), key=lambda q: math.atan2(loday.rays[q - 1][1],
                                                            loday.rays[q - 1][0]))
    assert tuple(by_angle) == DOUBLE_COVER_ORDER
    rep = certify_fan(double_cover_rays())
    assert (rep.stats.bad_ridges, rep.stats.degenerate_ridges) == (0, 0)
    assert rep.condition1 == "full" and rep.condition1_holds is False
    assert not rep.certified
    assert rep.first_failure == "open cones of base and (2, 3) intersect"


def _exceptions(ra, orient):
    """The facets whose oriented sign e sign(det) is 0 or not the base's,
    from scratch, with that sign."""
    rays = fan._int_rays(ra)
    sign = {}
    for f, e in orient.items():
        det = exactla.bareiss_det(fan._cone(rays, f))
        sign[f] = e * ((det > 0) - (det < 0))
    base = sign[greedy_facet(ra.word)]
    return {f: s for f, s in sign.items() if s != base or not s}


@functools.cache
def _construction(name, n, seed=None):
    """``(ra, walk's report, from-scratch report)`` for ``build_rays(name,
    n, seed)``, computed once for the tests that read it."""
    ra = build_rays(name, n, seed)
    return ra, certify_fan(ra), certify_from_scratch(ra)


# (name, n, seed) of the constructions, and the paper's among them that
# it certifies
CONSTRUCTIONS = [(name, n, seed) for name, ns, seed in [
    ("pattern", (1, 2, 3), None), ("naive", (2, 3), None), ("linear", (3,), None),
    ("fixed:5,3", (1, 2, 3), None), ("loday", (2, 3, 4), None), ("perturbed", (3,), 1),
] for n in ns]
CERTIFIED = [(name, n, None) for name, ns in [("pattern", (1, 2, 3)), ("loday", (2, 3, 4)),
                                              ("fixed:5,3", (1, 2, 3))] for n in ns]


def test_certificate_matches_from_scratch_on_constructions():
    # the constructions, rays that wind twice around the origin, with the
    # base point on the boundary of another cone, with a singular base
    # cone, of another dimension than the facets, and a lone facet
    for key in CONSTRUCTIONS:
        ra, rep, ref = _construction(*key)
        assert rep == ref, key
    for ra in [double_cover_rays(), _boundary_rays(), _singular_base_rays(1), _singular_base_rays(2),
               in_dimension(build_rays("pattern", 2), 3), in_dimension(build_rays("naive", 3), 7),
               RayAssignment(parse_word("w0(1)"), ((5,),), 1, "x")]:
        assert certify_fan(ra) == certify_from_scratch(ra), ra


def test_point_location_agrees_with_lp_on_constructions():
    # the walk locates the base point in no other cone, and so do
    # condition_one and the exact LP, which the reference runs and compares
    for key in CERTIFIED:
        ra, rep, ref = _construction(*key)
        assert ref.condition1 == "full" and ref.condition1_holds, key
        assert (rep.condition1, rep.condition1_holds) == ("full", True), key


def test_stream_certify_matches_indexed():
    # the one streamed pass against the enumerated complex: counts, the
    # degenerate cones by rank, and the base condition over the index
    for name, n in [("pattern", 2), ("pattern", 3), ("naive", 3)]:
        ra, rep, ref = _construction(name, n)
        idx = get_index(2, n)
        ranks = [cone_rank(ra, f) for f in idx.facets]
        assert (rep.stats.cones, rep.stats.ridges) == (idx.n_facets, idx.n_ridges)
        assert rep.stats.degenerate_cones == sum(1 for r in ranks if r < ra.dim)
        assert rep.stats.min_dimension == min(ranks)
        if rep.condition1 == "full":
            assert rep.condition1_holds
            assert condition_one(ra, idx.facets, greedy_facet(ra.word)) is None


def noisy(ref: RayAssignment, scale: int, rng: random.Random) -> RayAssignment:
    """``scale`` times each of ``ref``'s rays plus a uniform integer vector
    in [-3, 3]^d: plain random rays for ``scale`` 0."""
    rays = tuple(tuple(scale * x + rng.randint(-3, 3) for x in v) for v in ref.rays)
    return RayAssignment(ref.word, rays, ref.dim)


# (k, n): (draws, scale) of the noisy rays: plain random rays for the two
# smallest complexes, noisy multiples of the loday / pattern rays for the
# other two, where plain random rays almost never pass the ridge condition
DRAWS = {(2, 1): (1100, 0), (1, 2): (1200, 0), (1, 3): (60, 6), (2, 2): (100, 6)}


@functools.cache
def _drawn_rays():
    """``(cases, paired)``, computed once for the tests that read them:
    ``(ra, walk's report, from-scratch report)`` for each draw of
    ``DRAWS``, and the ridges between two exceptions, counted by whether
    they are good: whether the two have the same nonzero oriented sign."""
    rng = random.Random(0)
    cases = []
    paired = collections.Counter()
    for (k, n), (draws, scale) in DRAWS.items():
        ref = build_rays("loday" if k == 1 else "pattern", n)
        orient = orientations(ref.word)
        ridges = flip_graph(ref.word)[1]
        for _ in range(draws):
            ra = noisy(ref, scale, rng)
            cases.append((ra, certify_fan(ra), certify_from_scratch(ra)))
            exceptions = _exceptions(ra, orient)
            for f, g in ridges:
                if f in exceptions and g in exceptions:
                    paired[exceptions[f] == exceptions[g] != 0] += 1
    return cases, paired


def test_certificate_matches_from_scratch_on_drawn_rays():
    for ra, rep, ref in _drawn_rays()[0]:
        assert rep == ref, ra.rays


def test_point_location_agrees_with_lp_on_random_rays():
    # on the ridge-clean draws, where the reference compares condition_one
    # with the exact LP, the walk locates the point as they do; at least
    # 200 such draws, and one that fails the base condition
    full = [(ra, rep, ref) for ra, rep, ref in _drawn_rays()[0] if ref.condition1 == "full"]
    for ra, rep, ref in full:
        assert (rep.condition1, rep.condition1_holds, rep.first_failure) == \
            (ref.condition1, ref.condition1_holds, ref.first_failure), ra.rays
    assert len(full) >= 200
    assert any(ref.condition1_holds is False for _, _, ref in full)


def test_ridge_parity_matches_classify_ridge():
    # the walk's bad and degenerate ridges and its first ridge failure are
    # those of classify_ridge on every ridge; each kind of failure occurs
    cases, paired = _drawn_rays()
    for ra, rep, ref in cases:
        assert (rep.stats.bad_ridges, rep.stats.degenerate_ridges) == \
            (ref.stats.bad_ridges, ref.stats.degenerate_ridges), ra.rays
        if ref.condition1 == "skipped":
            assert rep.first_failure == ref.first_failure, ra.rays
    assert any(ref.stats.bad_ridges for _, _, ref in cases)
    assert any(ref.stats.degenerate_ridges for _, _, ref in cases)
    # the walk classifies these after it, from the lesser exception
    assert paired[True] >= 1 and paired[False] >= 1, paired


@st.composite
def drawn_rays(draw):
    """Rays on a drawn word, of the facets' size less one, the same or
    plus one, with coordinates in [-3, 3]."""
    w = draw(words_rotated_or_mirrored())
    size = greedy_facet(w).bit_count()
    dim = draw(st.integers(max(size - 1, 0), size + 1))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=len(w), max_size=len(w)))
    return RayAssignment(w, tuple(rays), dim)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_rays())
def test_certificate_matches_from_scratch_on_drawn_words(ra):
    assert certify_fan(ra) == certify_from_scratch(ra)


@pytest.mark.fulltier
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(drawn_rays())
def test_certificate_matches_from_scratch_on_more_drawn_words(ra):
    assert certify_fan(ra) == certify_from_scratch(ra)


def _unimodular_flip(dim: int, rng: random.Random) -> list[list[int]]:
    """A seeded integer matrix of determinant -1: a reflection followed by
    row additions, which keep the determinant."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    m[0][0] = -1
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _symmetric_images(ra: RayAssignment, rng: random.Random) -> dict[str, RayAssignment]:
    """The candidate under four symmetries of the fan conditions: each ray
    rescaled by its own positive integer, one linear map of determinant -1
    on every ray, and the word mirrored or rotated with the rays moved to
    the corresponding positions."""
    factors = [rng.randint(1, 9) for _ in ra.rays]
    m = _unimodular_flip(ra.dim, rng)
    rotated, corr = rotate(ra.word)
    moved = [None] * len(ra.rays)
    for r, v in enumerate(ra.rays, start=1):
        moved[corr[r] - 1] = v
    images = {
        "rescale": (ra.word, tuple(tuple(c * x for x in v) for v, c in zip(ra.rays, factors))),
        "linear": (ra.word, tuple(tuple(sum(a * x for a, x in zip(row, v)) for row in m)
                                  for v in ra.rays)),
        "mirror": (mirror(ra.word), ra.rays[::-1]),
        "rotate": (rotated, tuple(moved)),
    }
    return {name: RayAssignment(w, rays, ra.dim) for name, (w, rays) in images.items()}


@pytest.mark.parametrize("ra", [
    build_rays("pattern", 3),
    build_rays("naive", 3),
    build_rays("pattern-verbatim", 4),
    build_rays("perturbed", 4, 1),
    double_cover_rays(),
], ids=["pattern-3", "naive-3", "pattern-verbatim-4", "perturbed-4", "double-cover"])
def test_certificate_invariant_under_symmetries(ra):
    rep = certify_fan(ra)
    for name, image in _symmetric_images(ra, random.Random(7)).items():
        got = certify_fan(image)
        assert (got.stats, got.certified, got.condition1_holds) == \
            (rep.stats, rep.certified, rep.condition1_holds), name
        if name == "linear":
            # p and every cone move together, so the witnesses do too
            assert got.first_failure == rep.first_failure


def _located(monkeypatch, ra):
    """``(witness, located)``: the walk's witness over ``ra`` and, for each
    facet where it locates the base point, ``(cone, holds)``, the cone and
    the answer of its one test on the whole row of the point."""
    with monkeypatch.context() as m:
        located = wrap(m, fan._Cone, "holds_point")
        witness = _stats(ra)[2]
    return witness, [(cone, holds) for (cone,), holds in located]


def test_layout_sign_test_on_every_row_of_narrow_fields():
    # every row of up to three fields of 4 bits, each from -8 to 7: the
    # one test on the whole int holds exactly when every field is >= 0
    for d in (1, 2, 3):
        layout = fan._Layout(d, 4)
        for values in itertools.product(range(-8, 8), repeat=d):
            row = layout.pack(values)
            assert [layout.read(row, 4 * i) for i in range(d)] == list(values)
            assert layout.nonnegative(row) == all(v >= 0 for v in values), values


def test_whole_row_location_matches_the_fields(monkeypatch):
    # at every facet where the walk locates the base point, n <= 4: the
    # one test on sign(D) R[p] agrees with reading its d fields one by one,
    # and each field is the Cramer numerator from scratch; the rays that
    # are not a fan (the double cover, random and noisy pattern rays) put
    # p in other cones, and a zero numerator counts as inside
    rng = random.Random(2)
    cases = [build_rays(name, n, seed) for name, seed in
             [("pattern", None), ("loday", None), ("perturbed", 1), ("perturbed", 3)] for n in (1, 2, 3, 4)]
    cases += [double_cover_rays(), _boundary_rays()]
    for name, n, draws, scale in [("loday", 2, 1500, 0), ("pattern", 2, 40, 6)]:
        ref = build_rays(name, n)
        cases += [noisy(ref, scale, rng) for _ in range(draws)]
    outcomes = collections.Counter()
    for ra in cases:
        rays = fan._int_rays(ra)
        base = fan._cone(rays, greedy_facet(ra.word))
        point = [sum(i * row[k] for i, row in enumerate(base, 1)) for k in range(ra.dim)]
        for cone, holds in _located(monkeypatch, ra)[1]:
            rows = fan._cone(rays, cone.f)
            numerators = [exactla.bareiss_det(rows[:k] + [point] + rows[k + 1:]) for k in range(ra.dim)]
            row = cone.row(None)
            fields = [cone.layout.read(row, cone.shifts[c]) for c in positions_of(cone.f)]
            assert fields == numerators and holds == all(v * cone.det >= 0 for v in fields), ra.rays
            outcomes[holds, 0 in fields] += 1
    # (holds, a field is 0): 463, 14, 19 and 3 times; the facets that one
    # field of the parent's row of p rules out are never tested here
    # (test_point_pretest_is_exact)
    assert outcomes[False, False] >= 400 and outcomes[True, False] >= 10, outcomes
    assert outcomes[False, True] >= 10 and outcomes[True, True] >= 2, outcomes


def _pretest_outcomes(monkeypatch, ra):
    """Replay the walk's point location over ``ra`` from scratch and
    check its one-field pre-test at every facet where the walk locates
    p: the whole row of p is tested exactly when p's Cramer numerator in
    the entering position q, by ``bareiss_det``, does not have the sign
    opposite to the facet's determinant.  Returns a count of (tested, that
    numerator is 0) over those facets."""
    with monkeypatch.context() as m:
        located = wrap(m, fan._Cone, "holds_point")
        witness = _stats(ra)[2]
    tested = {cone.f for (cone,), _ in located}
    walked = [(g, entry) for g, _, entry, _, _ in walk_records(ra.word)]
    rays = fan._int_rays(ra)
    base = fan._cone(rays, walked[0][0])
    point = [sum(i * row[k] for i, row in enumerate(base, 1)) for k in range(ra.dim)]
    orient = orientations(ra.word)
    outcomes = collections.Counter()
    least = None
    for g, entry in walked:
        rows = fan._cone(rays, g)
        det = exactla.bareiss_det(rows)
        sign = orient[g] * ((det > 0) - (det < 0))
        if entry is None:
            first = sign
        if sign != first or not sign:
            break  # the first exception ends the point location
        if entry is None or (least is not None and g > least):
            continue
        numerators = [exactla.bareiss_det(rows[:k] + [point] + rows[k + 1:]) for k in range(ra.dim)]
        numerator = numerators[positions_of(g).index(entry[1])]
        assert (g in tested) == (numerator * det >= 0), (positions_of(g), entry, numerator, det)
        outcomes[g in tested, numerator == 0] += 1
        if all(v * det >= 0 for v in numerators):
            least = g
    assert witness == least, ra.rays
    return outcomes


def test_point_pretest_is_exact(monkeypatch):
    # the walk skips the test of a cone's whole row of p exactly where one
    # field of its parent's row of p, s times p's numerator in the
    # entering position, has the sign opposite to the cone's determinant;
    # a zero numerator runs the whole test, as it counts as inside.  The
    # boundary rays have such a zero numerator, at the cone (1, 2).  Over
    # these cases, (tested, numerator 0): 1,522 skipped, 412 and 1 tested
    cases = [build_rays(name, n, seed) for name, seed in
             [("pattern", None), ("loday", None), ("perturbed", 1), ("perturbed", 3)] for n in (1, 2, 3, 4)]
    cases += [double_cover_rays(), _boundary_rays()]
    outcomes = collections.Counter()
    for ra in cases:
        outcomes += _pretest_outcomes(monkeypatch, ra)
    assert outcomes[False, False] >= 1000 and outcomes[True, False] >= 100, outcomes
    assert _pretest_outcomes(monkeypatch, _boundary_rays())[True, True] == 1


def _boundary_rays():
    """Rays on c w0(2) that wind twice around the origin, every ridge good,
    with the base point p = r_4 + 2 r_5 = (3, 2) on ray 2: p lies on the
    boundary of the cones (1, 2) and (2, 3), each with one numerator 0."""
    word = build_rays("loday", 2).word
    rays = ((-1, -1), (3, 2), (-3, 2), (1, -2), (1, 2))
    return RayAssignment(word, tuple(tuple(map(Fraction, v)) for v in rays), 2)


def test_base_point_on_the_boundary_of_another_cone(monkeypatch):
    # the walk takes a cone whose closed cone holds p on its boundary, a
    # numerator 0 and the other of the determinant's sign, as the witness,
    # the least such cone in bitset order, as condition_one does.  It
    # visits (2, 3) first, entered by q = 2, whose numerator is not the
    # zero one, then (1, 2), entered by q = 1, whose numerator is: the
    # one test on each whole row of p holds p in both
    ra = _boundary_rays()
    facets = get_index(1, 2).facets
    base = greedy_facet(ra.word)
    assert positions_of(base) == (4, 5)
    witness, located = _located(monkeypatch, ra)
    assert witness == condition_one(ra, facets, base) == bitset_of([1, 2])
    held = [(positions_of(cone.f), cone.q, cone.layout.read(cone.row(None), cone.shifts[cone.q]))
            for cone, holds in located if holds]
    assert [(where, q, numerator == 0) for where, q, numerator in held] == [((2, 3), 2, False), ((1, 2), 1, True)]
    rep = certify_fan(ra)
    assert (rep.stats.bad_ridges, rep.stats.degenerate_ridges) == (0, 0)
    assert rep.first_failure == "open cones of base and (1, 2) intersect"


def _checked_stats(monkeypatch, ra):
    """``_stats`` with the self-check at every facet, which recomputes the
    facet's determinant from its rays and raises unless the carried one is
    the same: every ``(cone, point)`` checked, one per cone."""
    monkeypatch.setattr(fan, "SELF_CHECK_EVERY", 1)
    checked = wrap(monkeypatch, fan, "_self_check")
    cones = _stats(ra)[0].cones
    assert len(checked) == cones
    return [(cone, point) for (_, cone, point), _ in checked]


@pytest.mark.parametrize("construction,seed", [
    ("naive", None), ("fixed:5,3", None), ("linear", None), ("pattern", None), ("perturbed", 1),
])
def test_self_check_passes_at_every_facet(monkeypatch, construction, seed):
    # the walk works in the rays' own coordinates, scaled to integers, and
    # carries every facet's exact determinant in them
    for n in (1, 2, 3, 4):
        checked = _checked_stats(monkeypatch, build_rays(construction, n, seed))
        assert {cone.f for cone, _ in checked} == set(get_index(2, n).facets), n


def _row_sources(monkeypatch, ra):
    """``(checked, labels)``: ``_checked_stats`` over ``ra``, and a label,
    by ``id``, for each cone that ``_Cone.child`` and ``_derive`` made, by
    how it gets its rows: ``child`` builds every exchanged cone, those that
    ``_stats`` builds only when it reads them among them; the calls
    recorded keep every cone, so that no id is reused.  A derived cone is
    checked against the rule of ``_derive``: its route from ``base`` is one
    step per position exchanged, each to a regular cone, and it is stuck,
    with no row, exactly when it is singular, of the rank that its route
    gives.  The unit cone is the one ``base`` without a parent, and its
    route to the base facet takes d steps; any other route that reaches its
    facet takes one or two, since a stuck cone j >= 2 positions from its
    parent has rank d - j, and so has only singular children."""
    exchanged = wrap(monkeypatch, fan._Cone, "child")
    derived = wrap(monkeypatch, fan, "_derive")
    checked = _checked_stats(monkeypatch, ra)
    rays = fan._int_rays(ra)
    labels = {id(cone): "exchanged from the parent" for _, cone in exchanged}
    for (base, g), cone in derived:
        assert cone.f == g and base.det and base.f != g
        if cone.q is None:
            assert exactla.int_rank(fan._cone(rays, g)) == cone.route_rank() < ra.dim
            assert cone.parent.det and cone.rows == {} and not cone.det
            label = "stuck at rank d - 1" if cone.route_rank() == ra.dim - 1 else "stuck at rank d - 2 or less"
        else:
            assert cone.det
            steps, step = 1, cone.parent
            while step is not base:
                assert step.det
                steps, step = steps + 1, step.parent
            assert steps == (base.f & ~g).bit_count()
            if base.parent is None:
                assert steps == ra.dim
                label = "routed from the unit in d steps"
            else:
                label = {1: "derived in 1 step", 2: "derived in 2 steps"}[steps]
        labels[id(cone)] = label
    return checked, labels


@pytest.mark.parametrize("construction,n", [("naive", 5), ("pattern", 4)])
def test_carried_determinants_pass_a_self_check_at_every_facet(monkeypatch, construction, n):
    checked, labels = _row_sources(monkeypatch, build_rays(construction, n))
    if construction == "pattern":
        # the base point is located at every facet
        assert all(point is not None for _, point in checked)
        return
    # naive n=5 reaches every way a cone gets its rows
    sources = collections.Counter(labels[id(cone)] for cone, _ in checked)
    assert sources["routed from the unit in d steps"] == 1  # the base
    for source in ("exchanged from the parent", "derived in 1 step", "derived in 2 steps",
                   "stuck at rank d - 1", "stuck at rank d - 2 or less"):
        assert sources[source] >= 1, sources


@pytest.mark.parametrize("construction", ["naive", "fixed:5,3", "linear", "pattern"])
def test_one_unit_cone_per_walk(monkeypatch, construction):
    # the one adjugate that the walk does not exchange from another is the
    # unit cone's, built once, whose route leads to the base; every other
    # cone, singular ones and their children too, is exchanged
    units = wrap(monkeypatch, fan, "_unit")
    stats = _stats(build_rays(construction, 5))[0]
    assert len(units) == 1 and (stats.degenerate_cones > 0) == (construction != "pattern")


def test_derive_from_the_cone_itself():
    # a cone on the route to a singular one may be a facet of the walk
    # later: derived from itself, it is that cone
    ra = build_rays("pattern", 3)
    g = greedy_facet(ra.word)
    base = fan._derive(fan._unit(fan._int_rays(ra), [0] * ra.dim), g)
    assert base.f == g and base.det
    assert fan._derive(base, g) is base


def _singular_base_rays(dependent):
    """The pattern n=3 rays with the last ``dependent`` rays of the base
    cone replaced by combinations of its first two."""
    ra = build_rays("pattern", 3)
    base = positions_of(greedy_facet(ra.word))
    rays = list(ra.rays)
    first, second = rays[base[0] - 1], rays[base[1] - 1]
    for i, sign in zip(base[-dependent:], (1, -1)):
        rays[i - 1] = tuple(a + sign * b for a, b in zip(first, second))
    return RayAssignment(ra.word, tuple(rays), ra.dim)


@pytest.mark.parametrize("dependent", [1, 2], ids=["rank d-1", "rank d-2"])
def test_singular_base_facet(monkeypatch, dependent):
    # the base cone of the pattern n=3 rays, its last rays replaced by
    # combinations of its first two: the walk starts in a singular region,
    # and the cones there are exchanged from the regular cones on the route
    # from the one unit cone
    ra = _singular_base_rays(dependent)
    rows = fan._cone(fan._int_rays(ra), greedy_facet(ra.word))
    assert exactla.int_rank(rows) == ra.dim - dependent
    units = wrap(monkeypatch, fan, "_unit")
    checked = _checked_stats(monkeypatch, ra)
    assert len(units) == 1 and not checked[0][0].det and checked[0][1] is None
    assert any(cone.det for cone, _ in checked)
    assert _stats(ra)[0].min_dimension == ra.dim - dependent


def _walk_cones(monkeypatch, ra):
    """``(cones, entries, derived)`` of the walk over ``ra``: the cone of
    each facet, the flip ``(x, q, k)`` that entered it, None at the
    root, and every ``(cone, base)`` that ``_derive`` returned and started
    from, by the cone's ``id``."""
    derived = wrap(monkeypatch, fan, "_derive")
    cones = {cone.f: cone for cone, _ in _checked_stats(monkeypatch, ra)}
    entries = {g: entry for g, _, entry, _, _ in walk_records(ra.word)}
    assert cones.keys() == entries.keys()
    return cones, entries, {id(cone): (cone, base) for (base, _), cone in derived}


@pytest.mark.parametrize("ra", [
    build_rays("naive", 5), build_rays("fixed:5,3", 5), build_rays("linear", 5),
    _singular_base_rays(1), _singular_base_rays(2),
], ids=["naive-5", "fixed:5,3-5", "linear-5", "singular-base-rank-d-1", "singular-base-rank-d-2"])
def test_every_cone_reads_the_rows_of_a_regular_parent(monkeypatch, ra):
    # a cone that records a flip x -> q was exchanged from a regular
    # parent, whose rows it derives its own from; a child of a regular
    # cone is exchanged from it, and every child of a singular cone is
    # made by _derive, from the regular cone that the singular one came
    # from
    cones, entries, derived = _walk_cones(monkeypatch, ra)
    below_singular = 0
    for g, cone in cones.items():
        if cone.q is not None:
            assert cone.parent.det, positions_of(g)
        if entries[g] is None:
            continue
        parent = cones[parent_of(g, entries[g])]
        if parent.det:
            assert cone.parent is parent and id(cone) not in derived, positions_of(g)
        else:
            made, base = derived[id(cone)]
            assert made is cone and base is parent.parent, positions_of(g)
            below_singular += 1
    assert below_singular >= 1


# sha256 of repr(_stats(ra)): its FanStats, first failure and witness
STATS_DIGESTS = {
    ("naive", 1, None): "db2ffd60c68b8787bb65827bf4c0971ddea6ef359889d2935fb69312a6799dd2",
    ("naive", 2, None): "06be308b9f62927089956e2afefa520b4d9f588e4c81a6453ab16c026957f11b",
    ("naive", 3, None): "075ca0e0b6018e87e46e384326c20f0afb1d5a44a305de4dbdc1688ed786c3c9",
    ("naive", 4, None): "20fc537da663074e930cbc05d575ad1c05010594f3143e232df2df6b97162a09",
    ("naive", 5, None): "0b2df86d7ddac75e1576c5f01ac88d1f4a738e75ba09d33e46dad77f254fad60",
    ("naive", 6, None): "45bb9a953add849294214646f9c4805380764c03684d45e63be8778d5f819910",
    ("fixed:5,3", 1, None): "db2ffd60c68b8787bb65827bf4c0971ddea6ef359889d2935fb69312a6799dd2",
    ("fixed:5,3", 2, None): "06be308b9f62927089956e2afefa520b4d9f588e4c81a6453ab16c026957f11b",
    ("fixed:5,3", 3, None): "351f47623288cbf672af06a000148e019194abe22bb61fc451976ad517a19f8b",
    ("fixed:5,3", 4, None): "733aeb45fa17fd86ffc8c937d0a8f7fc1ef14e67e842c0ef32c25012fe455b84",
    ("fixed:5,3", 5, None): "3c82b8a63b04f368d74e6fd1a222cf229ea74481d9c568faf718509d0fa1b28e",
    ("fixed:5,3", 6, None): "fd34daec274e4fd3b5ab03328a64410c276f73a0c0afeab69a2f32d24d2f9aa1",
    ("linear", 1, None): "db2ffd60c68b8787bb65827bf4c0971ddea6ef359889d2935fb69312a6799dd2",
    ("linear", 2, None): "06be308b9f62927089956e2afefa520b4d9f588e4c81a6453ab16c026957f11b",
    ("linear", 3, None): "351f47623288cbf672af06a000148e019194abe22bb61fc451976ad517a19f8b",
    ("linear", 4, None): "8052f9c69a5889a64895c14ee67baec49ff062a5570018ae44d9c557ed34a2c7",
    ("linear", 5, None): "6f92b223de249ef103594769f9e06d97c53480960fbfb601e430e886046a59f2",
    ("linear", 6, None): "1ace37ca17dd0cfbb8c6ebac0e3012611e6d8ca3aa2b800d48f3ef1b7aae75aa",
    ("pattern", 1, None): "db2ffd60c68b8787bb65827bf4c0971ddea6ef359889d2935fb69312a6799dd2",
    ("pattern", 2, None): "06be308b9f62927089956e2afefa520b4d9f588e4c81a6453ab16c026957f11b",
    ("pattern", 3, None): "351f47623288cbf672af06a000148e019194abe22bb61fc451976ad517a19f8b",
    ("pattern", 4, None): "0da56e2cb07b318d1cad0a83b20a3335cac32f3b38638fdb5b2385654e25412e",
    ("pattern", 5, None): "8b1b5a368bae6870f81375c22a62bc820e05f6a1996d0778a203f04fd7a7448f",
    ("pattern-verbatim", 1, None): "db2ffd60c68b8787bb65827bf4c0971ddea6ef359889d2935fb69312a6799dd2",
    ("pattern-verbatim", 2, None): "06be308b9f62927089956e2afefa520b4d9f588e4c81a6453ab16c026957f11b",
    ("pattern-verbatim", 3, None): "351f47623288cbf672af06a000148e019194abe22bb61fc451976ad517a19f8b",
    ("pattern-verbatim", 4, None): "a6691ce0a60c05eee96c76bb278df859bb255d61fb7533f45c31c587d1f39501",
    ("pattern-verbatim", 5, None): "652726252cf9e905782ab380a5aa6479cc25cb0726c2005ae073601d9d06cf2c",
    ("loday", 1, None): "37d359bd50758d11960386afec2d9697cce54bd451f4ff60c46e646a62d7c830",
    ("loday", 2, None): "a6f11c831254a3f9ee5b92ce9d2129b6dcbfa3328a14f5e6e5ca7a4bc5485746",
    ("loday", 3, None): "42ccee59ee289dde41a621aa78e5f9c29af163b792a50845cc1112f018c956fb",
    ("loday", 4, None): "5bef3b6bf2a5d0ce8323b4ccdb8ed345747cc9f519c294373e80aefd6b80a61a",
    ("loday", 5, None): "9ee2b5fe37db867a70a34e382c015b5c32a5833766e6939dbd3b14973ec96236",
    ("perturbed", 3, 1): "351f47623288cbf672af06a000148e019194abe22bb61fc451976ad517a19f8b",
    ("perturbed", 4, 1): "0da56e2cb07b318d1cad0a83b20a3335cac32f3b38638fdb5b2385654e25412e",
    ("perturbed", 5, 1): "8b1b5a368bae6870f81375c22a62bc820e05f6a1996d0778a203f04fd7a7448f",
    ("perturbed", 3, 2): "351f47623288cbf672af06a000148e019194abe22bb61fc451976ad517a19f8b",
    ("perturbed", 4, 2): "0da56e2cb07b318d1cad0a83b20a3335cac32f3b38638fdb5b2385654e25412e",
    ("perturbed", 5, 2): "94518b34208c84d04ee211564c32f037fb063d3794cfc4bad849d2b6fe946cb3",
    ("perturbed", 3, 3): "351f47623288cbf672af06a000148e019194abe22bb61fc451976ad517a19f8b",
    ("perturbed", 4, 3): "93285faf848d84bda5f2f18aea1f56eb058dfd124f7f68515a2fbfaa5a1d5a47",
    ("perturbed", 5, 3): "ab58292ea8b580d7049a9777d0a67d188721b07ecbc1a8c574d36b3deb9b8f7f",
    ("fixed:5/2,3/7", 1, None): "db2ffd60c68b8787bb65827bf4c0971ddea6ef359889d2935fb69312a6799dd2",
    ("fixed:5/2,3/7", 2, None): "06be308b9f62927089956e2afefa520b4d9f588e4c81a6453ab16c026957f11b",
    ("fixed:5/2,3/7", 3, None): "351f47623288cbf672af06a000148e019194abe22bb61fc451976ad517a19f8b",
    ("fixed:5/2,3/7", 4, None): "733aeb45fa17fd86ffc8c937d0a8f7fc1ef14e67e842c0ef32c25012fe455b84",
    ("fixed:5/2,3/7", 5, None): "3c82b8a63b04f368d74e6fd1a222cf229ea74481d9c568faf718509d0fa1b28e",
}


def _digests(pinned):
    return {(c, n, seed): hashlib.sha256(repr(_stats(build_rays(c, n, seed))).encode()).hexdigest()
            for c, n, seed in pinned}


@pytest.mark.parametrize("construction", sorted({c for c, _, _ in STATS_DIGESTS}))
def test_walk_results_are_pinned(construction):
    # the statistics, first failure and witness of each case: a rewrite of
    # the walk, of its ridge signs or of its rank rule must keep them all
    pinned = {key: digest for key, digest in STATS_DIGESTS.items()
              if key[0] == construction and key[1] <= 5}
    assert _digests(pinned) == pinned


@pytest.mark.fulltier
def test_singular_heavy_n6_walks_are_pinned():
    # naive, fixed:5,3 and linear at n=6: 10,992, 5,742 and 2,904 of the
    # 40,898 cones singular, most of them reached through other singular
    # cones
    pinned = {key: digest for key, digest in STATS_DIGESTS.items() if key[1] == 6}
    assert len(pinned) == 3 and _digests(pinned) == pinned


@pytest.mark.fulltier
def test_benchmark_n6_walks_are_pinned():
    # the certified pattern and the rejected perturbed (seeds 1-3) rays at
    # n=6, whose base numerators come from the route from the unit matrix;
    # the perturbed rays give the widest tableau rows, 185-bit fields
    pinned = {
        ("pattern", 6, None): "533b6f48c0b262ddf05f72969a7da3ef8f360ebeb50a55751441ef2775fa4025",
        ("perturbed", 6, 1): "37829561e7439f8e0097410161a21abe6e85b5379908cff1412df482be051773",
        ("perturbed", 6, 2): "05e630bf8da8e4cfb0ad6aab012c55ab612c6848ecd3e4b32781ff172dfbbf1e",
        ("perturbed", 6, 3): "2c8853d39edaed6f2f059ad02f851c18be0304f1763c78f643d73bb6ec768c01",
    }
    assert _digests(pinned) == pinned


def _traced_peak(ra):
    """The peak of the memory that Python allocates while ``ra`` is
    certified, in MB."""
    tracemalloc.start()
    try:
        certify_fan(ra)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_certificate_keeps_no_memo_per_facet():
    # the certified walk stores no facet, only its path's tableau rows:
    # 0.09 MB at n=5, where a sign per facet visited would take 0.39 MB
    assert _traced_peak(build_rays("pattern", 5)) < 0.2


@pytest.mark.fulltier
def test_certificate_keeps_no_memo_per_facet_n6():
    # 0.14 MB at n=6, where a sign per facet visited would take 2.8 MB
    assert _traced_peak(build_rays("pattern", 6)) < 0.5


def _contents(ra):
    """The primitive rays of ``scale_to_int`` and the content of each
    coordinate over them, 1 for a zero coordinate."""
    scaled = [exactla.scale_to_int(v) for v in ra.rays]
    return scaled, [math.gcd(*column) or 1 for column in zip(*scaled)]


@pytest.mark.parametrize("construction,n,seed",
                         [("perturbed", n, seed) for n in (4, 5) for seed in (1, 2, 3)]
                         + [("fixed:5/2,3/7", n, None) for n in (4, 5)])
def test_int_rays_are_content_free(construction, n, seed):
    # the walk's rays are the primitive rays with each coordinate divided
    # by its content: perturbed rays have contents 200,000 and 10^6, and
    # the fixed:5/2,3/7 rays 14
    ra = build_rays(construction, n, seed)
    scaled, contents = _contents(ra)
    rays = fan._int_rays(ra)
    assert max(contents) > 1
    assert all(math.gcd(*column) in (0, 1) for column in zip(*rays))
    assert [tuple(a * g for a, g in zip(v, contents)) for v in rays] == scaled


def test_int_rays_divide_every_determinant_by_the_contents():
    # a positive diagonal change of basis: every facet's determinant over
    # the primitive rays is its determinant over the walk's rays times the
    # product of the contents, a 58-bit factor on perturbed n=4
    ra = build_rays("perturbed", 4, 1)
    scaled, contents = _contents(ra)
    rays = fan._int_rays(ra)
    factor = math.prod(contents)
    assert factor.bit_length() == 58
    for f in get_index(2, 4).facets:
        assert exactla.bareiss_det(fan._cone(scaled, f)) == exactla.bareiss_det(fan._cone(rays, f)) * factor


def _rank_calls(monkeypatch, ra):
    """``(calls, stuck, stats)``: the number of ``int_rank`` calls that
    ``_stats`` makes outside its self-check, and how many stuck cones,
    whose ``_derive`` route stopped short, have each rank.  Every singular
    cone is ranked again from scratch: each is met once, its route rank is
    its rank, which is d - 1 unless it is stuck, and the least rank is the
    minimal dimension.  The walk's cones are singular when the facets have
    other than d rays, and then every one of them is stuck."""
    singular = {}

    def check(rays, cone, point):
        if not cone.det:
            singular[cone.f] = cone.q is None, cone.route_rank(), exactla.int_rank(fan._cone(rays, cone.f))

    calls = wrap(monkeypatch, fan, "int_rank")
    monkeypatch.setattr(fan, "SELF_CHECK_EVERY", 1)
    monkeypatch.setattr(fan, "_self_check", check)
    stats = _stats(ra)[0]
    assert len(singular) == stats.degenerate_cones
    for stuck, route, rank in singular.values():
        assert route == rank and (stuck or rank == ra.dim - 1), (stuck, route, rank)
    assert stats.min_dimension == min((rank for _, _, rank in singular.values()), default=ra.dim)
    return len(calls), collections.Counter(rank for stuck, _, rank in singular.values() if stuck), stats


@pytest.mark.parametrize("construction,expected", [("naive", {7: 5, 8: 84, 9: 517}), ("linear", {8: 6, 9: 148})],
                         ids=["naive", "linear"])
def test_stuck_routes_rank_their_cones(monkeypatch, construction, expected):
    # a singular cone exchanged from a regular parent has rank d - 1, and
    # one whose _derive route stops with j >= 1 swaps left has rank d - j,
    # so the walk ranks no cone by int_rank; the singular cones are found
    # here by a determinant per facet
    ra = build_rays(construction, 5)
    rays = [exactla.scale_to_int(v) for v in ra.rays]
    singular = sum(exactla.bareiss_det([rays[r - 1] for r in positions_of(f)]) == 0
                   for f in get_index(2, 5).facets)
    calls, stuck, stats = _rank_calls(monkeypatch, ra)
    assert stats.degenerate_cones == singular
    assert calls == 0 and stuck == expected, (calls, stuck)


def test_walk_derives_few_columns_and_ranks(monkeypatch):
    # every cone reads its fields from its own rows, each derived once
    # from its parent's, and every singular cone is ranked by its route.
    # The pattern n=5 certificate derives 9,349 tableau rows of d = 10
    # fields, d (d - 1) / 2 = 45 of them on the route from the unit matrix
    # to the base, and the naive n=5 walk 7,572; as tableau columns of
    # m + 1 = 26 fields they took 5,859 and 6,661 exchanges.  So the fields
    # moved fall from 152,334 to 93,490 and from 173,186 to 75,720.  A
    # leaf's cone is not built, and p's row of a cone is derived only when
    # one field of its parent's row of p leaves p's location open: 1,166
    # of the 4,718 other facets of the pattern n=5 walk test their whole
    # row of p.  None of the 782 singular cones of the naive n=5 rays is
    # ranked by int_rank
    with monkeypatch.context() as m:
        derived = wrap(m, fan, "exchange_column")
        located = wrap(m, fan._Cone, "holds_point")
        for construction, rows, columns, tests in [("pattern", 9349, 5859, 1166), ("naive", 7572, 6661, 30)]:
            derived.clear()
            located.clear()
            ra = build_rays(construction, 5)
            assert _stats(ra)[0].cones == 4719 and (ra.dim, len(ra.word)) == (10, 25)
            assert len(derived) == rows and len(derived) * ra.dim <= columns * 26, (construction, len(derived))
            assert len(located) == tests, (construction, len(located))
    calls, stuck, stats = _rank_calls(monkeypatch, build_rays("naive", 5))
    assert stats.degenerate_cones == 782
    assert calls == 0, (calls, stuck)


@pytest.mark.fulltier
@pytest.mark.parametrize("construction,singular,stuck,least", [
    ("linear", 2904, 2868, 9), ("naive", 10992, 9537, 8),
], ids=["linear", "naive"])
def test_n6_walks_rank_without_int_rank(monkeypatch, construction, singular, stuck, least):
    # every singular cone of the naive and linear n=6 walks is ranked by
    # its route, with no int_rank call; 9,537 and 2,868 of them are stuck
    calls, ranks, stats = _rank_calls(monkeypatch, build_rays(construction, 6))
    assert (stats.degenerate_cones, sum(ranks.values()), stats.min_dimension) == (singular, stuck, least)
    assert calls == 0, (calls, ranks)


@pytest.mark.parametrize("construction,n,dim,least", [
    ("pattern", 2, 3, 3), ("pattern", 2, 5, 4), ("w0(1)", 1, 1, 0),
    ("pattern", 3, 4, 4), ("pattern", 3, 7, 6), ("naive", 4, 1, 0), ("naive", 4, 11, 6),
    ("loday", 4, 2, 2), ("loday", 4, 5, 4), ("perturbed", 3, 5, 5),
])
def test_walks_of_another_dimension_rank_by_their_routes(monkeypatch, construction, n, dim, least):
    # facets of fewer or more rays than the dimension: every cone is
    # singular, stuck on a route of exchanges that stops when the facet's
    # positions or the regular cone's run out, or no pair pivots, and
    # ranked by that route, with no int_rank call.  The pattern n=2 rays
    # in 3 and 5 dimensions are the command line's cases, and w0(1) has
    # one facet, empty, a rank 0 cone in dimension 1
    if construction == "w0(1)":
        ra = RayAssignment(parse_word("w0(1)"), ((5,),), 1, "x")
    else:
        ra = in_dimension(build_rays(construction, n, 1 if construction == "perturbed" else None), dim)
    assert greedy_facet(ra.word).bit_count() != ra.dim
    calls, stuck, stats = _rank_calls(monkeypatch, ra)
    assert sum(stuck.values()) == stats.degenerate_cones == stats.cones
    assert stats.min_dimension == least and calls == 0, (stats, calls)


def _layout(ra):
    """The packing of the walk over ``ra``, as ``fan._unit`` makes it."""
    rays = fan._int_rays(ra)
    return fan._Layout(ra.dim, fan._width(rays, ra.dim))


def _corrupt_rows(monkeypatch, corrupt):
    """Have ``_Cone.row`` store ``corrupt(cone, w, row)`` in place of each
    row that it derives."""
    row = fan._Cone.row

    def corrupted(cone, w):
        fresh = w not in cone.rows
        value = row(cone, w)
        if fresh:
            value = cone.rows[w] = corrupt(cone, w, value)
        return value

    monkeypatch.setattr(fan._Cone, "row", corrupted)


def test_self_check_catches_a_wrong_column(monkeypatch):
    # one more in every field of every row derived
    ra = build_rays("pattern", 3)
    ones = _layout(ra).pack([1] * ra.dim)
    monkeypatch.setattr(fan, "SELF_CHECK_EVERY", 1)
    wrap(monkeypatch, fan, "exchange_column", after=lambda row, *args: row + ones)
    with pytest.raises(ArithmeticError, match="carried"):
        certify_fan(ra)


def test_self_check_catches_a_wrong_rank(monkeypatch):
    # the naive n=4 walk has 27 stuck cones, 2 of rank 6 = d - 2 and 25
    # of rank 7: read as d - j + 1 from their routes, the minimal dimension
    # would be 7, and the self-check at every facet fails the run at the
    # first of them, of rank 7
    ra = build_rays("naive", 4)
    with monkeypatch.context() as m:
        assert _rank_calls(m, ra)[1] == {6: 2, 7: 25}
    ranked = wrap(monkeypatch, fan._Cone, "route_rank", after=lambda rank, cone: rank + (cone.q is None))
    assert _stats(ra)[0].min_dimension == 7
    assert collections.Counter(rank for (cone,), rank in ranked if cone.q is None) == {6: 2, 7: 25}
    ranked.clear()
    monkeypatch.setattr(fan, "SELF_CHECK_EVERY", 1)
    with pytest.raises(ArithmeticError, match=r"carried rank of cone \("):
        certify_fan(ra)
    assert [rank for (cone,), rank in ranked if cone.q is None] == [7, 7]


@pytest.mark.parametrize("construction", ["pattern", "linear"])
def test_self_check_catches_a_wrong_entry_parity(monkeypatch, construction):
    # the parity k of the walk's first entry flipped: the child's
    # determinant and its orientation both change sign, so its oriented
    # sign and every statistic stay the same, and without a self-check
    # the n=4 walk sees nothing; the sampled self-check at its default
    # rate, which takes facet 1, recomputes that child's determinant and
    # fails the run there
    ra = build_rays(construction, 4)
    expected = repr(_stats(ra))
    walk = fan.walk
    flipped = []

    def faulty(word, step):
        def flip(state, g, x, q, k, *arrays):
            if x is not None and not flipped:
                flipped.append(g)
                k ^= 1
            return step(state, g, x, q, k, *arrays)

        walk(word, flip)

    monkeypatch.setattr(fan, "walk", faulty)
    with monkeypatch.context() as m:
        m.setattr(fan, "_self_check", lambda rays, cone, point: None)
        assert repr(_stats(ra)) == expected
    assert positions_of(flipped[0]) == (1, 11, 12, 14, 15, 16, 17, 18)
    flipped.clear()
    assert fan.SELF_CHECK_EVERY == 4096
    message = r"carried determinant of cone \(1, 11, 12, 14, 15, 16, 17, 18\) is wrong"
    with pytest.raises(ArithmeticError, match=message):
        _stats(ra)


def test_self_check_catches_a_wrong_numerator(monkeypatch):
    # corrupt one field, that of slot 0, of the first row of the point
    # derived once the base cone is built, by the walk and not by the
    # route from the unit: the determinants stay right, and the
    # numerators derived from it go wrong
    ra = build_rays("pattern", 3)
    one = _layout(ra).pack([1])
    corrupted = []

    def off_by_one(cone, w, row):
        if w is None and bases and not corrupted:
            row += one
            corrupted.append(row)
        return row

    monkeypatch.setattr(fan, "SELF_CHECK_EVERY", 1)
    bases = wrap(monkeypatch, fan, "_derive")
    _corrupt_rows(monkeypatch, off_by_one)
    with pytest.raises(ArithmeticError, match="carried Cramer numerator"):
        certify_fan(ra)
    assert corrupted


def test_self_check_catches_a_wrong_ray_field(monkeypatch):
    # one more in every field of every row of ray 1 derived: the base
    # facet, checked first, lacks position 1, and its determinant, read
    # from the rows of its own positions, is right; the field of ray 1 in
    # the slot of its first position, which the self-check recomputes, is
    # not
    ra = build_rays("pattern", 3)
    ones = _layout(ra).pack([1] * ra.dim)
    assert positions_of(greedy_facet(ra.word)) == (6, 8, 9, 10, 11, 12)
    monkeypatch.setattr(fan, "SELF_CHECK_EVERY", 1)
    _corrupt_rows(monkeypatch, lambda cone, w, row: row + ones if w == 1 else row)
    message = r"carried tableau field of ray 1 on cone \(6, 8, 9, 10, 11, 12\)"
    with pytest.raises(ArithmeticError, match=message):
        certify_fan(ra)


def _held_rows(monkeypatch, ra):
    """Every cone of the walk over ``ra`` whose rows are read, the unit
    cone among them; their ``rows`` then hold every row that they
    derived or started with."""
    with monkeypatch.context() as m:
        calls = wrap(m, fan._Cone, "row")
        _stats(ra)
    return list({id(cone): cone for (cone, _), _ in calls}.values())


def _largest_field(monkeypatch, ra, oracle=True):
    """``(K, largest)``: the width of the walk over ``ra`` and the largest
    magnitude of a field of a row that it holds.  With ``oracle``, each
    field is checked against the determinant that it stands for, from
    scratch: the field of c in the row of r_i is the cone's determinant
    with the row of c replaced by r_i, and in the row of p with it
    replaced by the base point p, a position past the word's being a unit
    row."""
    rays = fan._int_rays(ra)
    m, d = len(rays), ra.dim
    base = fan._cone(rays, greedy_facet(ra.word))
    point = [sum(i * row[k] for i, row in enumerate(base, 1)) for k in range(d)]
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    vectors = {None: point, **{r: rays[r - 1] if r <= m else units[r - m - 1] for r in range(1, m + d + 1)}}
    largest = 0
    cones = _held_rows(monkeypatch, ra)
    assert cones
    for cone in cones:
        where = positions_of(cone.f)
        rows = [vectors[r] for r in where]
        for w, row in cone.rows.items():
            for k, c in enumerate(where):
                field = cone.layout.read(row, cone.shifts[c])
                if oracle:
                    assert field == exactla.bareiss_det(rows[:k] + [vectors[w]] + rows[k + 1:]), (where, c, w)
                largest = max(largest, abs(field))
    return fan._width(rays, d), largest


@pytest.mark.parametrize("construction,seed", [
    ("naive", None), ("fixed:5,3", None), ("linear", None), ("pattern", None), ("loday", None),
    ("perturbed", 1), ("perturbed", 2), ("perturbed", 3),
])
def test_tableau_fields_are_their_determinants(monkeypatch, construction, seed):
    # every field of every row the walk holds reads back as the
    # determinant it stands for, inside the width that Hadamard's bound
    # gives: 2^(K - 1) bounds it
    for n in (1, 2, 3, 4):
        width, largest = _largest_field(monkeypatch, build_rays(construction, n, seed))
        assert largest < 1 << (width - 1), (n, width, largest)


def test_tableau_width_at_hadamard_equality(monkeypatch):
    # on c^2 w0(2), d = 4, the base facet's rays are the rows of a 4 x 4
    # Hadamard matrix: its determinant 16 meets Hadamard's bound, the
    # product of the four row norms 2, and every other ray has norm 2 too
    hadamard = [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)]
    word = build_rays("pattern", 2).word
    base = positions_of(greedy_facet(word))
    rays = [(1, 1, 1, -1), (1, -1, -1, -1), (-1, 1, -1, -1)]
    for r, row in zip(base, hadamard):
        rays.insert(r - 1, row)
    ra = RayAssignment(word, tuple(tuple(map(Fraction, v)) for v in rays), 4)
    assert fan._int_rays(ra) == rays
    assert abs(exactla.bareiss_det(hadamard)) == 16
    width, largest = _largest_field(monkeypatch, ra)
    # the width holds (1 + 2 + 3 + 4) 16, the bound on a numerator p . C
    assert width == (10 * 16).bit_length() + 1 and largest < 1 << (width - 1)
    cones = _held_rows(monkeypatch, ra)
    assert 16 in {abs(cone.layout.read(row, shift)) for cone in cones for w, row in cone.rows.items()
                  if w is not None for shift in cone.shifts.values()}


def test_self_check_catches_a_too_narrow_width(monkeypatch):
    # at the width that the largest field of the pattern n=3 walk needs,
    # the walk's results are the same; one bit below, that field reads
    # back wrong, and the self-check at every facet fails the run
    ra = build_rays("pattern", 3)
    expected = repr(_stats(ra))
    width, largest = _largest_field(monkeypatch, ra)
    narrow = largest.bit_length()
    assert narrow < width - 1
    monkeypatch.setattr(fan, "_width", lambda rays, d: narrow + 1)
    assert repr(_stats(ra)) == expected
    monkeypatch.setattr(fan, "SELF_CHECK_EVERY", 1)
    monkeypatch.setattr(fan, "_width", lambda rays, d: narrow)
    with pytest.raises(ArithmeticError, match="carried"):
        _stats(ra)


@pytest.mark.fulltier
@pytest.mark.parametrize("construction,seed,width,bits", [
    ("linear", None, 46, 25), ("perturbed", 1, 185, 167),
])
def test_tableau_width_headroom_n6(monkeypatch, construction, seed, width, bits):
    # the width of the n=6 walk against the bits of the largest field it
    # holds: Hadamard's bound leaves 46 - 1 - 25 and 185 - 1 - 167 bits
    # unused.  The walk derives the row of the point p only while it
    # locates p, which on the linear rays stops at the first bad ridge, so
    # no 29-bit numerator p . C is held there; its largest determinant has
    # 24 bits
    got = _largest_field(monkeypatch, build_rays(construction, 6, seed), oracle=False)
    print(f"{construction} n=6: width {got[0]} bits, largest field {got[1].bit_length()} bits")
    assert (got[0], got[1].bit_length()) == (width, bits)


def test_format_stats_table():
    stats = stream_statistics(build_rays("naive", 3))
    text = format_stats_table([stats])
    lines = text.splitlines()
    assert lines[0].split() == ["n", "3"]
    assert "# degenerate ridges" in text and "minimal dimension" in text
