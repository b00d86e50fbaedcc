import hashlib
from fractions import Fraction

import pytest

from multifan.moves import MoveTrace, fattening_sequence, format_trace
from multifan.rays import (
    CONSTRUCTIONS,
    RayAssignment,
    build_rays,
    format_ray_file,
    parse_ray_file,
    pattern_ray,
    replay_fattening,
    scheme_for,
)
from multifan.subword import is_face
from multifan.words import c_sorted_word, multiassociahedron_word


def ints(ra):
    return [[int(x) for x in v] for v in ra.rays]


def _prefix(trace, s):
    """The first s moves of a trace."""
    return MoveTrace(trace.words[: s + 1], trace.events[:s], trace.labels[: s + 1])


def test_double_transform():
    scheme = scheme_for("fixed:5,3", 2)
    # one doubling: -1 on the copy at r, +1 on the copy at r+1
    trace = fattening_sequence(c_sorted_word(1))
    assert [str(e) for e in trace.events] == ["D 1"]
    out = replay_fattening(RayAssignment(c_sorted_word(1), ((),), 0), trace, scheme)
    assert out.word.letters == (1, 1)
    assert out.rays == ((Fraction(-1),), (Fraction(1),))
    assert out.dim == 1


def test_braid_transform():
    scheme = scheme_for("fixed:5,3", 2)
    # every braid of the n=2 first fattening (weights 5, 3 from the scheme)
    # and of the second one (weights 1, 1): outer rays exchanged, middle
    # a*rho_r + b*rho_{r+2} - rho_{r+1}
    first = fattening_sequence(c_sorted_word(2))
    start = RayAssignment(first.initial, ((),) * len(first.initial), 0)
    second_start = build_rays("loday", 2)  # one fattening, normalised onto c w0(c)
    second = fattening_sequence(second_start.word, triangle_start=2)
    braids = []
    for trace, ra, (a, b) in ((first, start, (5, 3)), (second, second_start, (1, 1))):
        for s, e in enumerate(trace.events):
            if e.kind != "B":
                continue
            before = replay_fattening(ra, _prefix(trace, s), scheme).rays
            after = replay_fattening(ra, _prefix(trace, s + 1), scheme).rays
            r = e.r
            lo, mid, hi = before[r - 1 : r + 2]
            assert after[r - 1] == hi and after[r + 1] == lo
            assert after[r] == tuple(a * u + b * w - v for u, v, w in zip(lo, mid, hi))
            assert after[: r - 1] == before[: r - 1] and after[r + 2 :] == before[r + 2 :]
            braids.append(any(mid))
    assert braids == [False, True]

    with pytest.raises(ValueError, match="initial word"):
        replay_fattening(start, second, scheme)


def test_dimensions():
    for n in (1, 2, 3, 4):
        assert build_rays("naive", n).dim == 2 * n
        assert build_rays("loday", n).dim == n


NAIVE4 = [
    [-1, 0, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
    [1, -1, 0, 0, -1, 0, 0, 0],
    [0, 1, -1, 0, 0, -1, 0, 0],
    [0, 0, 1, -1, 0, 0, -1, 0],
    [0, 0, 0, 1, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, -1, 0, 0],
    [0, -1, 1, 0, 1, 0, -1, 0],
    [0, -1, 0, 1, 1, 0, 0, -1],
    [1, -1, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, -1, 0],
    [0, 0, -1, 1, 0, 1, 0, -1],
    [0, 1, -1, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, -1],
    [0, 0, 1, -1, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 1],
]


def test_naive_n4_matrix():
    assert ints(build_rays("naive", 4)) == NAIVE4


FIXED53_N3 = [
    [-1, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [5, -3, 0, -1, 0, 0],
    [0, 5, -3, 0, -1, 0],
    [0, 0, 1, 0, 0, -1],
    [0, 2, 0, 1, -1, 0],
    [4, -3, 1, 1, 0, -1],
    [5, -3, 0, 1, 0, 0],
    [0, 4, -2, 0, 1, -1],
    [0, 5, -3, 0, 1, 0],
    [0, 0, 1, 0, 0, 1],
]


def test_fixed_53_n3_matrix():
    ra = build_rays("fixed:5,3", 3)
    assert ints(ra) == FIXED53_N3
    # row 7 called out separately: replaying with weights 5, 3
    assert ints(ra)[6] == [0, 2, 0, 1, -1, 0]


def test_pattern_small():
    assert ints(build_rays("pattern", 1)) == [[-1, 0], [1, -1], [1, 1]]
    # rows of -e_j from the diagonals three steps past the short ones
    p3 = ints(build_rays("pattern", 3))
    assert p3[0] == [-1, 0, 0, 0, 0, 0]
    assert p3[1] == [0, -1, 0, 0, 0, 0]
    assert p3[2] == [0, 0, -1, 0, 0, 0]


def test_pattern_formula_values():
    assert pattern_ray(1, (1, 4)) == (1, -1)
    assert pattern_ray(1, (2, 5)) == (1, 1)
    assert pattern_ray(1, (3, 6)) == (-1, 0)


def test_pattern_coordinates_are_small_integers():
    for n in range(1, 6):
        for v in build_rays("pattern", n).rays:
            for x in v:
                assert x.denominator == 1
                assert -(2 * n + 2) <= x <= 2 * n + 2


def test_integer_coordinates_for_table_constructions():
    for name in ("naive", "fixed:5,3", "linear", "loday"):
        for n in (1, 2, 3, 4):
            for v in build_rays(name, n).rays:
                assert all(x.denominator == 1 for x in v)


def _pattern_linear_diffs(n):
    pat = ints(build_rays("pattern", n))
    lin = ints(build_rays("linear", n))
    return [
        (row, col, a, b)
        for row, (va, vb) in enumerate(zip(pat, lin), start=1)
        for col, (a, b) in enumerate(zip(va, vb), start=1)
        if a != b
    ]


def test_pattern_vs_linear_deviations():
    # the pattern equals the linear construction except at staircase cells
    # (i, j) with 2 <= j <= n-i-1, where a single extra negative entry
    # -(j-1) appears
    for n in range(1, 6):
        diffs = _pattern_linear_diffs(n)
        expect = (n - 2) * (n - 3) // 2 if n >= 3 else 0
        assert len(diffs) == expect
        for _, _, a, b in diffs:
            assert b == 0 and a < 0
    assert [a for _, _, a, _ in _pattern_linear_diffs(5)] == [-1, -2, -1]


def test_pattern_verbatim_differs():
    # the verbatim inner-diagonal coefficient produces different rays for
    # n >= 3 (and cannot match the reference integer table)
    assert ints(build_rays("pattern-verbatim", 2)) == ints(build_rays("pattern", 2))
    assert ints(build_rays("pattern-verbatim", 5)) != ints(build_rays("pattern", 5))


def test_pattern_verbatim_fails_certification_with_ridge_witness():
    # the variant reading stops being realizing at n=4; the checker names
    # the first bad ridge instead of silently emending the formula
    from multifan.fan import certify_fan

    ra = build_rays("pattern-verbatim", 4)
    rep = certify_fan(ra)
    assert not rep.certified
    assert rep.stats.bad_ridges == 18
    assert rep.first_failure.startswith("bad ridge")


def test_zero_rays_exactly_on_non_vertices():
    for name, k, n in [("naive", 2, 3), ("pattern", 2, 2), ("loday", 1, 3)]:
        ra = build_rays(name, n)
        for r, v in enumerate(ra.rays, start=1):
            assert is_face(ra.word, (r,)) == any(v)


def test_perturbed_determinism_and_seed_sensitivity():
    a = build_rays("perturbed", 4, seed=123)
    b = build_rays("perturbed", 4, seed=123)
    c = build_rays("perturbed", 4, seed=124)
    assert format_ray_file(a) == format_ray_file(b)
    assert format_ray_file(a) != format_ray_file(c)
    with pytest.raises(ValueError):
        build_rays("perturbed", 3)


def test_perturbed_noise_bounds():
    scheme = scheme_for("perturbed", 5, seed=9)
    for i in range(1, 5):
        for j in range(1, 6 - i):
            for weight, base in zip(scheme[(i, j)], (14 - i - j, 13 - i - j)):
                noise = weight - base
                assert abs(noise) <= Fraction(1, 1000)
                assert noise.denominator <= 10 ** 6


def test_ray_file_round_trip():
    for name, n, seed in [("pattern", 3, None), ("perturbed", 3, 77)]:
        ra = build_rays(name, n, seed)
        text = format_ray_file(ra)
        back = parse_ray_file(text)
        assert back.word == ra.word and back.rays == ra.rays
        assert back.construction == ra.construction and back.seed == ra.seed
        assert format_ray_file(back) == text


def test_unknown_construction():
    for name in ("mystery", "fixed:-1,3", "fixed:0,3", "fixedXYZ", "fixed5,3",
                 "fixed:1e3,1", "fixed:1,2,3", "fixed:"):
        with pytest.raises(ValueError):
            build_rays(name, 3)
    # fixed weights are integers or p/q, as ray files write them
    assert scheme_for("fixed:7/2,1", 3)[(1, 1)] == (Fraction(7, 2), 1)


def test_loday_closed_pattern():
    # prefix letters carry -e_i; staircase letter (i, j) carries e_i - e_{i+j}
    # for j <= n-i and e_i at the end of its row
    for n in (2, 3, 4):
        ra = build_rays("loday", n)
        got = ints(ra)
        exp = []
        for i in range(1, n + 1):
            e = [0] * n
            e[i - 1] = -1
            exp.append(e)
        for i in range(1, n + 1):
            for j in range(1, n + 2 - i):
                e = [0] * n
                e[i - 1] = 1
                if j <= n - i:
                    e[i + j - 1] = -1
                exp.append(e)
        assert got == exp


# sha256 of format_ray_file(build_rays(construction, n, seed)) and of the
# verbose format_trace of the fattening of c^k w0(n) at offset k*n, taken
# before trace replay moved onto apply_move's position correspondence.  The
# n=6..8 ray files, of the constructions the benchmark and the full tier
# build, were taken before replay moved rays by moves.carry.
RAY_SHA256 = {
    ('naive', 1, None): "ddecfd5adcf8ce4adb7313fc2e8cc61b84765fdb600a09271b39e1f2622cc303",
    ('naive', 2, None): "fcdeb2afa569b137292ef3ba74d4821b3f37dfb6d00dca4dd2cde9cfcc4bbd24",
    ('naive', 3, None): "c37b809fa50a39c204a1b8bf789d4e7f2f0d3fc9642d56fedefbf18be569e852",
    ('naive', 4, None): "d2d037accb853901684e0d7b635e6da4000c39b25c4fb301b817e4165ba27bd6",
    ('naive', 5, None): "48dd990dc5660ca5d692a54509bbdf4fdf75767a7b29cbe8480490978de8a00e",
    ('naive', 6, None): "924fad08e5935144a45a706251123f263a422a5fe7dd209f09943bdfccffa858",
    ('naive', 7, None): "316f7e781f19f30c8d15ef3eb70be0f444da74c4d49a94d7ff28d718c896dfe2",
    ('naive', 8, None): "801fd1c1bd85dcfc3879266c60e8f5bb37d9f1b5c1406a67d4fd4a5e86963022",
    ('fixed', 1, None): "fec88fe3ba7f7ed99067fd98091f5733b180ac8779bd9a755a24d87b71bfe68b",
    ('fixed', 2, None): "bf300158c7ca192055fd5fcaa792eb009c567002b0b625e393af17a20a75afd2",
    ('fixed', 3, None): "c7a3962268f447820b16554075eb6b371a3c9f760cc5e7a9a76e2984c2c4bf0f",
    ('fixed', 4, None): "2967d69025f1276052e230224bb3d8dda3ee0b925be7437678f2a7083c4bd854",
    ('fixed', 5, None): "709d06987ff3e6cda0699c36f8bac4f19505ab990bbac067182b374b3a6f2d7d",
    ('linear', 1, None): "c323a61e97e474d305c723f9dcff5f922a74f11d3955d6f3a2dae3ee8ebe4758",
    ('linear', 2, None): "553ad5c8a7af36a47c9da64f42be677448ec198568a5d0af3679cc8e10e8a286",
    ('linear', 3, None): "8aea4e75bc48f4ac693f9dc508b574b83b6c56d473628e0c91ccaace660fbfcd",
    ('linear', 4, None): "db63fccb06410073488c61e3dec98c012adf211f298e08f66750ba21c27449c2",
    ('linear', 5, None): "055c25054e6a1c024cde575604bd9f726fdcb7a1ffa6c76efe8b58f3d9f257d4",
    ('linear', 6, None): "323734caa7e37c840969fbd928ac6648c2fba3e6009061be57ade171f726b647",
    ('linear', 7, None): "06e112e7df5684cca8ed629f3d3c27873a822546e0402032958cff42e8cb932b",
    ('linear', 8, None): "943472cbdce262574ec90990b1bddb83926d72cdb0a691783fe6f983e2c865b1",
    ('perturbed', 1, 1): "9598d7ca30b57329f6191afc10988b78631c2253239f99731a02a071cada5567",
    ('perturbed', 2, 1): "e922cc508083f265664fb7205f869936eb61aa30894f8a63226f7e18f964ee95",
    ('perturbed', 3, 1): "cf17e8cb8c4c21dd2e8f723c357a5310b46850472b0c7f439f63500afd83724e",
    ('perturbed', 4, 1): "02f9675afbbe705556cc3f34947a11d9c15d82c2f4ff40431db7a13a36904a7a",
    ('perturbed', 5, 1): "4f2b104656a5b8507468dceb4fa4d33e4fb14efc1c2b7a0b7d243da2ac1eee67",
    ('perturbed', 6, 1): "39b04220581e37538e630200a9839efefcfabd0c57e04157e329df5d07ce5625",
    ('perturbed', 7, 1): "dc7ea99f1f1bee8e8e2d52e215d6f0d07d3d090dbafde5052225657de3728fe0",
    ('perturbed', 8, 1): "c92b0259ff0e98e4db02903268725a4325fa0f10d731ca54fe84269e76cbda90",
    ('perturbed', 1, 42): "56d1e402b5b4ef308f4633c6d42674b878c9406aed14b5f3171d5c1b3bb618a2",
    ('perturbed', 2, 42): "08360ea93e3850c8e4d39700581800893feb85f94de9eaaeb1fe5709adf9943a",
    ('perturbed', 3, 42): "8beed779e846a2179beaa1498e8814df5e1dc79374e2f06e114bc0e083632e72",
    ('perturbed', 4, 42): "ea481d9fbbe49ef346d12dc86c24c9fcd4299863c78788b9b542a2ccd30291aa",
    ('perturbed', 5, 42): "af18eac4d52fcf6b52e61ec93689a3d0a8075e7c5d7ea68f1e7c20948e92e088",
    ('pattern', 1, None): "1e9d0347bcaa537f8d5d67901cf9dc1b142c31825c17b9fecf7f9c2ff98eefd6",
    ('pattern', 2, None): "8acc951013f26673de18a14f5400a12923a65cf1f0e7cad157fbdd7a36652100",
    ('pattern', 3, None): "a7266b315a6ade7ea0878c08faf0d11f1a48c82b8253a45828c21de97ecb7a1f",
    ('pattern', 4, None): "c96408e494d19235bbceeefe4bf8a5c788c47d01b21606282a384e6f319ae57f",
    ('pattern', 5, None): "8e8d8ff3b8276208707793120a5b95c2bb7cc8debe3e9d89aa0fab227c66fbc8",
    ('pattern', 6, None): "83295d6c2e75a26ada488c9202facfc7100f53f5f96c991dfbd14891f93bf3dc",
    ('pattern', 7, None): "60799f0f6784f42c81fd249d62a2137def539dd78348d6648635baf6192b41dd",
    ('pattern', 8, None): "ee13c5e44e6d1c4b724db94ffcf08c9897ef6af43184c5a543cb895156a4c43c",
    ('pattern-verbatim', 1, None): "2b978e738ac9ac8882b9522fc08ca5b8bbda2022e1eb2576ee58313e2ad3c19c",
    ('pattern-verbatim', 2, None): "33d7865d84d6f3a2e81dba8ee632d195cec6c59c37383a0c909396e6378fb679",
    ('pattern-verbatim', 3, None): "d48c4069224e8d318290852d472cb6d03777ccc30573c8c640fe420b6a552175",
    ('pattern-verbatim', 4, None): "8bf3dca18ef40f23d66fa76ff81920ababfedf15aab6b867c7f9c855705592d0",
    ('pattern-verbatim', 5, None): "1a7f5570f9044a7f2511e17b233660a6bd03c9889f360f626bcd8029529adc83",
    ('loday', 1, None): "f25ba380a4be62f25da7898b8f2e7d80ad7b70d229b5400aa90a431b06eec89e",
    ('loday', 2, None): "c24499f028f8e38011e61670c81c7ec89bc103427375955d2aff43249438faf0",
    ('loday', 3, None): "d5fc9ac9178aa1d16a497e35fcd66ce7c03431c2b6c6a6f68b72c3efb154119c",
    ('loday', 4, None): "b599297543be388837e0e587f95e745882b22148c52348f54b9d3d67e89e4dc5",
    ('loday', 5, None): "5eaae3fd2fd7610a948e0b2573b99955ae0b68158ade16dab130b3ae8005bfa2",
    ('loday', 6, None): "af14628537b9d98aeadbd78a104772d84a255b566a8b8ca542337db8e9f5fca6",
    ('loday', 7, None): "5d59a9304ed98e8dff086b84206b3bfe9b0eec877f968fefafaba49a5f45c36b",
    ('loday', 8, None): "92b964c5c22d2a15a52bedbb85ea91a42c211247178f5fe83e24905ef41e6174",
}
TRACE_SHA256 = {
    (1, 0): "64e9f06f814938aecd3b0ed8de2864d87be2b8feda298eb8893ba5ff282c5761",
    (1, 1): "0e0c07cdbdcb4f7372dc822652ee9760403fef3eb10fc23a6151a290c4b2ada9",
    (1, 2): "c7b7584ce616068c5ee2d3cf445372457cafb1e7693f12e79622adcfbd02c9d2",
    (2, 0): "c6537ddd39b5de70918bd049f3bf5d26ea252d5c460b72850db44baa05600ced",
    (2, 1): "e5c577c834ab8bcb5c7c1a841dcf2b997ee5f93fe318f57e4a1561233b63e7b2",
    (2, 2): "e74dd49cdf94ce00767f2dc697489823717ef5b479028edb6298f2d60287b394",
    (3, 0): "531a052ade9583293aab767fef155afa243399e7a0d2b4b7217146b3abf53050",
    (3, 1): "da3dbda54fc52bde9511e0516c657f9a9d05103f3a458f6bb524c8360abdd821",
    (3, 2): "568cfb5435230f54193de77813cb17faf16ccdca293dc955379b84ccbca7f8e9",
    (4, 0): "630f64b116f46a77e4f75e6cda698c02b22b0507f2ed10d341ef358fbe4352ba",
    (4, 1): "489c52bda49fa8fcafa6e02439ca9b1d5d63e8782f846d33b8d91644bee15390",
    (4, 2): "4479bb797f5b8602eb8476b5edc0b479707a05ce98e2f86cf68dea0e22c2c3b7",
    (5, 0): "b127187a3dd7d58f42668c7a3fce38ed9841129735065760c652e41a1ec03fec",
    (5, 1): "489ed3813f020e241aecc168f93fb85397e59cbb8e2cadcf197fc822cdbac15e",
    (5, 2): "708cbc9f12b7c05142ef90488631518d1f968f063c9513814f1370c3d0a2052e",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_ray_files_and_traces_pinned():
    assert {c for c, _, _ in RAY_SHA256} == set(CONSTRUCTIONS)
    for (construction, n, seed), digest in RAY_SHA256.items():
        text = format_ray_file(build_rays(construction, n, seed))
        assert _sha256(text) == digest, (construction, n, seed)
    for (n, k), digest in TRACE_SHA256.items():
        trace = fattening_sequence(multiassociahedron_word(k, n), k * n)
        assert _sha256(format_trace(trace, verbose=True)) == digest, (n, k)
