"""Compare the walk of two source trees in one process, call by call.

    python3 tools/interleave.py OLD_SRC NEW_SRC --construction C --n N --reps R [--seed S]

OLD_SRC and NEW_SRC are each a directory holding the ``multifan``
package (a checkout's ``src``) or the package directory itself.  Both
packages, plus a second copy of OLD (the A/A control), are copied into a
temporary directory under distinct names; the package imports itself only
by relative imports, so the three copies load side by side.  Each tree
builds the rays of construction C at n = N (``--seed`` for ``perturbed``),
then ``fan._stats`` runs R times per tree, the three calls of one
repetition in a rotating order, each timed by ``time.process_time``.  All
three trees must return the same result.

Per tree it prints the median time, the median of its per-pair ratio to
OLD, and in how many of the R pairs it ran faster than OLD.  A drift of
the host's speed moves the calls of one repetition together, so the
ratios cancel most of it; the A/A copy shows how far apart two identical
trees read.  Nothing is written outside the temporary directory.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

TREES = ("old", "aa", "new")


def package_dir(path: str) -> Path:
    """The ``multifan`` package under ``path``, or ``path`` itself."""
    p = Path(path)
    return p / "multifan" if (p / "multifan" / "__init__.py").is_file() else p


def load(old: Path, new: Path, into: Path) -> dict:
    """Copy the trees into ``into`` and import each one's ``fan`` and
    ``rays`` modules, by tree name."""
    trees = {}
    for name, src in zip(TREES, (old, old, new)):
        shutil.copytree(src, into / f"multifan_{name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    for name in TREES:
        trees[name] = (importlib.import_module(f"multifan_{name}.fan"),
                       importlib.import_module(f"multifan_{name}.rays"))
    return trees


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--construction", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--reps", type=int, required=True)
    ap.add_argument("--seed", type=int)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    old, new = package_dir(args.old), package_dir(args.new)
    with tempfile.TemporaryDirectory() as tmp:
        trees = load(old, new, Path(tmp))
        rays = {name: rays.build_rays(args.construction, args.n, args.seed)
                for name, (_, rays) in trees.items()}
        times = {name: [] for name in TREES}
        results = set()
        for rep in range(args.reps):
            for i in range(len(TREES)):
                name = TREES[(rep + i) % len(TREES)]
                stats = trees[name][0]._stats
                start = time.process_time()
                result = stats(rays[name])
                times[name].append(time.process_time() - start)
                results.add(repr(result))
        if len(results) != 1:
            print("error: the trees return different results", file=sys.stderr)
            return 1
    print(f"# {args.construction} n={args.n} seed={args.seed}, {args.reps} reps, process_time")
    print(f"{'tree':5} {'median_s':>9} {'ratio':>6} {'lower':>6}")
    for name in TREES:
        ratios = [t / o for t, o in zip(times[name], times["old"])]
        lower = "-" if name == "old" else f"{sum(r < 1 for r in ratios)}/{args.reps}"
        print(f"{name:5} {statistics.median(times[name]):9.4f} {statistics.median(ratios):6.3f} {lower:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
