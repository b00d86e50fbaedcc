"""
Exact rational ray coordinates for subword complexes.

Rays are built either by replaying fattening traces move by move (the
naive, fixed, linear, perturbed and loday constructions) or directly from
the closed diagonal-indexed formulas (the pattern construction).

A replay moves the rays with the letters, by the rule ``moves.carry``
applies to every move, so every ray stays on its letter:

* doubling at r: the ambient dimension grows by one; the copy at r gets
  the old ray with -1 appended, the copy at r+1 the old ray with +1, and
  every other ray a 0;
* braid at r with weights (a, b): the outer rays are exchanged and the
  new middle ray is a*rho_r + b*rho_{r+2} - rho_{r+1};
* commutations just exchange two rays.

Each fattening is followed by the commutations onto c^(k+1) w0(c)
(``moves.commutation_trace``), replayed the same way.

In a first fattening (the one that starts in dimension 0, where every
staircase letter carries the zero ray) the braid weights are read from a
table over the grid cells (i, j) of the rank n-1 staircase
(``words.staircase_cells``), at the cell (i, j) of the middle letter's
label (i, j+1); a second fattening uses the weights (1, 1).  Non-vertices
always carry the zero vector.  The pattern construction lays its rays out
by the same grid, through the diagonal of each position
(``polygon.position_diagonals``).
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .words import Word, _integer, c_sorted_word, multiassociahedron_word, staircase_cells

if TYPE_CHECKING:
    from .moves import MoveTrace

__all__ = [
    "RayVec",
    "RayAssignment",
    "BraidWeights",
    "replay_fattening",
    "scheme_for",
    "build_rays",
    "pattern_ray",
    "CONSTRUCTIONS",
    "format_ray_file",
    "parse_ray_file",
]

RayVec = tuple[Fraction, ...]

# Braid weights of a first fattening: (left, right) at each grid cell (i, j)
# of the rank n-1 staircase.
BraidWeights = dict[tuple[int, int], tuple[Fraction, Fraction]]

_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _rational(token: str) -> Fraction:
    """An integer or p/q with q > 0, as ``str(Fraction)`` writes it, and
    nothing else: the work is bounded by the size of the token.

    >>> _rational("-7/2"), _rational("4/2")
    (Fraction(-7, 2), Fraction(2, 1))
    """
    if not _RATIONAL.fullmatch(token):
        raise ValueError(f"bad rational {token!r}")
    return Fraction(token)


class _RayAssignment(NamedTuple):
    word: Word
    rays: tuple[RayVec, ...]
    dim: int
    construction: str = ""
    seed: int | None = None


class RayAssignment(_RayAssignment):
    """Exact rays, one per position of ``word``; dimension ``dim``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.rays) != len(self.word):
            raise ValueError("one ray per position required")
        for v in self.rays:
            if len(v) != self.dim:
                raise ValueError("ray of wrong dimension")
        return self


def replay_fattening(ra: RayAssignment, trace: MoveTrace,
                     weights: BraidWeights) -> RayAssignment:
    """Replay a move trace over an assignment on its initial word, moving
    the rays with the letters of each move.

    A trace that starts in dimension 0 is a first fattening: its braid
    weights come from ``weights`` (the middle ray is checked to be zero);
    any other trace uses the weights (1, 1).
    """
    from .moves import carry

    if ra.word != trace.initial:
        raise ValueError("assignment does not match the trace's initial word")
    first = ra.dim == 0
    zero, one = Fraction(0), Fraction(1)
    rays = list(ra.rays)
    dim = ra.dim
    for s, event in enumerate(trace.events):
        r = event.r
        if event.kind == "D":
            v = rays[r - 1]
            rays = [u + (zero,) for u in rays]
            rays[r - 1] = v + (-one,)
            carry(rays, event, v + (one,))
            dim += 1
        elif event.kind == "B":
            lo, mid, hi = rays[r - 1 : r + 2]
            if first:
                lab = trace.labels[s][r]  # middle letter, label (i, j+1)
                assert lab is not None and lab.j >= 2 and not lab.primed
                a, b = weights[(lab.i, lab.j - 1)]
                assert not any(mid), "first-fattening middle ray not zero"
            else:
                a, b = one, one
            carry(rays, event, None)
            rays[r] = tuple(a * u + b * x - v for u, v, x in zip(lo, mid, hi))
        else:
            carry(rays, event, None)
    return RayAssignment(trace.final, tuple(rays), dim, ra.construction, ra.seed)


def _fatten_once(ra: RayAssignment, triangle_start: int,
                 weights: BraidWeights) -> RayAssignment:
    """One fattening of the staircase factor at ``triangle_start``,
    normalised by commutations onto c^(k+1) w0(c)."""
    from .moves import commutation_trace, fattening_sequence

    out = replay_fattening(ra, fattening_sequence(ra.word, triangle_start), weights)
    n = ra.word.rank
    target = multiassociahedron_word(triangle_start // n + 1, n)
    return replay_fattening(out, commutation_trace(out.word, target), weights)


def scheme_for(construction: str, n: int, seed: int | None = None) -> BraidWeights:
    """The braid weights of a named replayed construction, as a table
    ``{(i, j): (left, right)}`` over ``staircase_cells(n - 1)``; every
    weight in it is positive.

    perturbed adds seeded noise to the linear weights: numerators uniform
    in [-1000, 1000] over 10^6, drawn cell by cell, left before right.

    >>> scheme_for("linear", 3)
    {(1, 1): (Fraction(8, 1), Fraction(7, 1)), (1, 2): (Fraction(7, 1), Fraction(6, 1)), (2, 1): (Fraction(7, 1), Fraction(6, 1))}
    """
    cells = staircase_cells(n - 1)
    if construction == "naive" or construction == "loday":
        return {cell: (Fraction(1), Fraction(1)) for cell in cells}
    if construction == "fixed":
        construction = "fixed:5,3"
    if construction.startswith("fixed:"):
        weights = [_rational(t) for t in construction[len("fixed:"):].split(",")]
        if len(weights) != 2 or min(weights) <= 0:
            raise ValueError(f"fixed takes two positive weights L,R, got {construction!r}")
        return {cell: tuple(weights) for cell in cells}
    if construction == "linear" or construction == "perturbed":
        linear = {(i, j): (Fraction(2 * n + 4 - i - j), Fraction(2 * n + 3 - i - j))
                  for i, j in cells}
        if construction == "linear":
            return linear
        if seed is None:
            raise ValueError("perturbed construction requires a seed")
        rng = random.Random(seed)
        return {cell: (left + Fraction(rng.randint(-1000, 1000), 10 ** 6),
                       right + Fraction(rng.randint(-1000, 1000), 10 ** 6))
                for cell, (left, right) in linear.items()}
    raise ValueError(f"unknown construction {construction!r}")


# Pattern construction: closed formulas per 2-relevant diagonal of the
# (n+5)-gon, in coordinates e_1..e_n, f_1..f_n of R^{2n}.  The letter at a
# position of c^2 w0(c) receives the formula of its identified diagonal
# rotated by two polygon steps (the verified rotation of positions).

def _basis(n: int, *terms) -> RayVec:
    v = [Fraction(0)] * (2 * n)
    for coef, axis, idx in terms:
        v[idx - 1 + (n if axis == "f" else 0)] += Fraction(coef)
    return tuple(v)


def pattern_ray(n: int, d: tuple[int, int], verbatim: bool = False) -> RayVec:
    """The closed-form ray of a 2-relevant diagonal of the (n+5)-gon.

    ``verbatim`` keeps the inner-diagonal coefficient 2n+4-i; the default
    2n+2-i is the reading consistent with the vendored integer table.
    """
    a, b = d
    if a == 1:
        if b == 4:
            return _basis(n, (1, "e", n), (-1, "f", n))
        j = b - 4
        return _basis(n, (2 * n + 2 - j, "e", j), (-(2 * n + 2 - j), "e", j + 1),
                      (1, "e", n), (1, "f", j), (-1, "f", n))
    if a == 2:
        if b == n + 4:
            return _basis(n, (1, "e", n), (1, "f", n))
        j = b - 4
        return _basis(n, (2 * n + 3 - j, "e", j), (-(2 * n + 2 - j), "e", j + 1),
                      (1, "f", j))
    if a == 3:
        j = b - 5
        return _basis(n, (-1, "e", j))
    if a == 4:
        j = b - 6
        return _basis(n, (2 * n + 3 - j, "e", j), (-(2 * n + 2 - j), "e", j + 1),
                      (-1, "f", j))
    i = a - 4
    j = b - a - 2
    x = (2 * n + 4 - i) if verbatim else (2 * n + 2 - i)
    return _basis(n, (j, "e", i),
                  (-(j - 1), "e", i + j), (-(j - 1), "e", i + j + 1),
                  (x, "e", i + j), (-x, "e", i + 1),
                  (1, "f", i), (-1, "f", i + j))


def _rotate_diagonal(n: int, d: tuple[int, int], steps: int) -> tuple[int, int]:
    from .polygon import polygon_size

    m = polygon_size(2, n)
    a = (d[0] + steps - 1) % m + 1
    b = (d[1] + steps - 1) % m + 1
    return (a, b) if a < b else (b, a)


def _build_pattern(n: int, verbatim: bool = False) -> RayAssignment:
    from .polygon import position_diagonals

    word = multiassociahedron_word(2, n)
    rays = [pattern_ray(n, _rotate_diagonal(n, d, 2), verbatim)
            for d in position_diagonals(2, n)]
    name = "pattern-verbatim" if verbatim else "pattern"
    return RayAssignment(word, tuple(rays), 2 * n, name)


CONSTRUCTIONS = ("naive", "fixed", "linear", "perturbed", "pattern",
                 "pattern-verbatim", "loday")


def build_rays(construction: str, n: int, seed: int | None = None) -> RayAssignment:
    """Rays for a named construction.

    naive, fixed[:L,R], linear and perturbed fatten a staircase twice and
    live on c^2 w0(c) in dimension 2n; loday fattens once and lives on
    c w0(c) in dimension n; pattern evaluates the closed formulas on
    c^2 w0(c).

    >>> build_rays("pattern", 1).rays
    ((Fraction(-1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(-1, 1)), (Fraction(1, 1), Fraction(1, 1)))
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if construction in ("pattern", "pattern-verbatim"):
        return _build_pattern(n, verbatim=construction == "pattern-verbatim")
    if construction != "perturbed":
        seed = None
    weights = scheme_for(construction, n, seed)
    word = c_sorted_word(n)
    ra = RayAssignment(word, ((),) * len(word), 0, construction, seed)
    ra = _fatten_once(ra, 0, weights)
    if construction != "loday":
        ra = _fatten_once(ra, n, weights)
    return ra


def format_ray_file(ra: RayAssignment) -> str:
    seed = "none" if ra.seed is None else str(ra.seed)
    lines = [f"# n={ra.word.rank} d={ra.dim} construction={ra.construction} seed={seed}"]
    for pos, v in enumerate(ra.rays, start=1):
        coords = " ".join(str(x) for x in v)
        lines.append(f"{pos} s{ra.word.letter(pos)} {coords}")
    return "\n".join(lines) + "\n"


def parse_ray_file(text: str) -> RayAssignment:
    """Parse the ray file format of :func:`format_ray_file`.

    Any malformed input raises ``ValueError`` naming the offending line.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty ray file")
    no, head = lines[0]
    try:
        if not head.startswith("# "):
            raise ValueError("missing ray file header")
        fields = {}
        for tok in head[2:].split():
            key, eq, value = tok.partition("=")
            if not eq:
                raise ValueError(f"bad header field {tok!r}")
            if key in fields:
                raise ValueError(f"repeated header field {key!r}")
            fields[key] = value
        if "n" not in fields or "d" not in fields:
            raise ValueError("header lacks n= or d=")
        n, d = _integer(fields["n"]), _integer(fields["d"])
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        if d < 0:
            raise ValueError(f"dimension must be >= 0, got {d}")
        seed = None if fields.get("seed", "none") == "none" else _integer(fields["seed"])
    except ValueError as exc:
        raise ValueError(f"ray file line {no}: {exc}") from None
    construction = fields.get("construction", "")
    letters = []
    rays = []
    for pos, (no, ln) in enumerate(lines[1:], start=1):
        toks = ln.split()
        try:
            if len(toks) < 2 or _integer(toks[0]) != pos or not toks[1].startswith("s"):
                raise ValueError(f"bad ray line {ln!r}")
            letters.append(_integer(toks[1][1:]))
            if not 1 <= letters[-1] <= n:
                raise ValueError(f"letter s_{letters[-1]} out of range for rank {n}")
            rays.append(tuple(_rational(t) for t in toks[2:]))
        except ValueError as exc:
            raise ValueError(f"ray file line {no}: {exc}") from None
        if len(rays[-1]) != d:
            raise ValueError(f"ray file line {no}: ray of dimension {len(rays[-1])}, "
                             f"expected {d}")
    return RayAssignment(Word(n, tuple(letters)), tuple(rays), d, construction, seed)
