from fractions import Fraction

import pytest

from multifan.rays import (
    RayAssignment,
    braid_transform,
    build_rays,
    double_transform,
    format_ray_file,
    parse_ray_file,
    pattern_ray,
    scheme_for,
)
from multifan.subword import vertex_status
from multifan.words import Word


def ints(ra):
    return [[int(x) for x in v] for v in ra.rays]


def test_double_transform():
    ra = RayAssignment(Word(1, (1,)), ((),), 0)
    out = double_transform(ra, 1, -1, 1)
    assert out.word.letters == (1, 1)
    assert out.rays == ((Fraction(-1),), (Fraction(1),))
    with pytest.raises(ValueError):
        double_transform(ra, 1, 1, 2)


def test_braid_transform():
    ra = RayAssignment(
        Word(2, (1, 2, 1)),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))),
        2,
    )
    out = braid_transform(ra, 1, 1, 1, 1)
    assert out.word.letters == (2, 1, 2)
    # outer rays exchanged, middle = rho_r + rho_{r+2} - rho_{r+1}
    assert out.rays[0] == (1, 1)
    assert out.rays[2] == (1, 0)
    assert out.rays[1] == (2, 0)
    with pytest.raises(ValueError):
        braid_transform(ra, 1, 0, 1, 1)


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
        flags = vertex_status(ra.word)
        for flag, v in zip(flags, ra.rays):
            assert flag == any(v)


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
            for fn, base in ((scheme.left, 14 - i - j), (scheme.right, 13 - i - j)):
                noise = fn(i, j) - base
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
    with pytest.raises(ValueError):
        build_rays("mystery", 3)
    with pytest.raises(ValueError):
        build_rays("fixed:-1,3", 3)


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
