"""The scripts under ``tools/`` run end to end."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tree(root: Path) -> dict[Path, int]:
    """Every path under ``root`` outside ``.git``, with the time it was
    last changed: a file or directory made, edited or removed changes it."""
    return {p: p.stat().st_mtime_ns for p in root.rglob("*") if ".git" not in p.relative_to(root).parts}


def test_interleave_compares_three_trees_and_writes_nothing_into_the_checkout(tmp_path):
    # the package against itself: OLD, its A/A copy and NEW all return
    # the same statistics, and each row reports its pairs against OLD
    before = _tree(ROOT)
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), str(ROOT / "src"),
         str(ROOT / "src" / "multifan"), "--construction", "pattern", "--n", "2", "--reps", "2"],
        capture_output=True, text=True, check=True, cwd=tmp_path)
    head, columns, *rows = out.stdout.splitlines()
    assert head.startswith("# pattern n=2") and columns.split() == ["tree", "median_s", "ratio", "lower"]
    assert [row.split()[0] for row in rows] == ["old", "aa", "new"]
    assert rows[0].split()[2:] == ["1.000", "-"]
    assert all(row.split()[3].endswith("/2") for row in rows[1:])
    assert _tree(ROOT) == before and not list(tmp_path.iterdir())


def test_mutate_kills_one_row_and_writes_nothing_into_the_checkout(tmp_path):
    # one committed fault, applied to a temporary copy of the package:
    # its named tests all fail there, and the checkout stays as it was
    before = _tree(ROOT)
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "mutate.py"), "wrong divisor"],
                         capture_output=True, text=True, check=True, cwd=tmp_path)
    assert out.stdout == "killed  wrong divisor (2 tests)\n"
    assert _tree(ROOT) == before and not list(tmp_path.iterdir())
