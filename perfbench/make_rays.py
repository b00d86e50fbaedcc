"""Write the ray file of one benchmark input.

    PYTHONPATH=src python3 perfbench/make_rays.py CONSTRUCTION N CSEED RSEED OUT

CONSTRUCTION, N and CSEED are passed to ``multifan.rays.build_rays``
(CSEED is ``-`` for constructions without a seed).  With RSEED other than
``-``, every ray is then multiplied by its own positive integer in 1..9,
drawn from ``random.Random(RSEED)``.  A positive rescaling of single rays
changes no determinant sign, rank or ridge status, so certification and
every statistic stay the same while the input file differs per seed.
"""

from __future__ import annotations

import random
import sys

from multifan.rays import RayAssignment, build_rays, format_ray_file


def make_rays(construction: str, n: int, cseed: int | None,
              rseed: int | None) -> RayAssignment:
    ra = build_rays(construction, n, cseed)
    if rseed is None:
        return ra
    rng = random.Random(rseed)
    factors = [rng.randint(1, 9) for _ in ra.rays]
    rays = tuple(tuple(x * k for x in v) for v, k in zip(ra.rays, factors))
    return RayAssignment(ra.word, rays, ra.dim, f"{construction}-rescaled", rseed)


def main(argv: list[str]) -> int:
    construction, n, cseed, rseed, out = argv

    def opt(s):
        return None if s == "-" else int(s)

    ra = make_rays(construction, int(n), opt(cseed), opt(rseed))
    with open(out, "w") as fh:
        fh.write(format_ray_file(ra))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
