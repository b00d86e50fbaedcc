"""
Vendored reference tables and the cell-by-cell reproduction checks.

The golden files under ``golden/`` hold transcribed reference data: four
integer ray matrices (T1, T3, T5-integer, F10) and three statistics tables
(T2, T4, T6) with columns n = 1..8.  Reproduction regenerates the content
from scratch and diffs every cell, reporting PASS/FAIL lines.
"""

from __future__ import annotations

from importlib import resources
from typing import NamedTuple

from . import TABLE_IDS
from .fan import STAT_ROWS, stream_statistics
from .rays import build_rays

__all__ = ["TABLE_IDS", "CellResult", "reproduce_table"]

# which construction regenerates each table
_MATRIX_SPECS = {
    "T1": ("t1.txt", "naive", 4),
    "T3": ("t3.txt", "fixed:5,3", 3),
    "T5-integer": ("t5_integer.txt", "pattern", 5),
    "F10": ("f10.txt", "loday", 3),
    "F12": ("t5_integer.txt", "pattern", 5),
}
_STATS_SPECS = {
    "T2": ("t2.txt", "naive"),
    "T4": ("t4.txt", "fixed:5,3"),
    "T6": ("t6.txt", "linear"),
}


class CellResult(NamedTuple):
    cell: str
    expected: str
    got: str

    @property
    def ok(self) -> bool:
        return self.expected == self.got


def _golden_lines(name: str) -> list[str]:
    text = resources.files("multifan.golden").joinpath(name).read_text()
    return [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


def _load_matrix(name: str) -> list[list[int]]:
    return [[int(t) for t in ln.split()] for ln in _golden_lines(name)]


def _load_stats(name: str) -> dict[str, list[str]]:
    rows = {}
    for ln in _golden_lines(name):
        toks = ln.split()
        rows[toks[0]] = toks[1:]
    return rows


def _check_matrix(table_id: str) -> list[CellResult]:
    fname, construction, n = _MATRIX_SPECS[table_id]
    golden = _load_matrix(fname)
    ra = build_rays(construction, n)
    results = []
    for row, (v, want) in enumerate(zip(ra.rays, golden), start=1):
        for col, (x, y) in enumerate(zip(v, want), start=1):
            results.append(CellResult(f"{table_id}[row {row}, col {col}]", str(y), str(x)))
    if len(golden) != len(ra.rays):
        results.append(CellResult(f"{table_id}[rows]", str(len(golden)), str(len(ra.rays))))
    return results


def _check_stats(table_id: str, ns: list[int]) -> list[CellResult]:
    fname, construction = _STATS_SPECS[table_id]
    golden = _load_stats(fname)
    cols = [int(x) for x in golden["n"]]
    results = []
    for n in ns:
        stats = stream_statistics(build_rays(construction, n))
        ci = cols.index(n)
        for _, row in STAT_ROWS:
            got = str(getattr(stats, row))
            results.append(CellResult(f"{table_id}[n={n}, {row}]", golden[row][ci], got))
    return results


def reproduce_table(table_id: str, ns: list[int] | None = None) -> list[CellResult]:
    """Regenerate a table and diff it cell by cell against the golden file.

    ``ns`` restricts statistics tables to the given columns (default 1..5);
    the ray matrices are fixed-n and reject a range not containing their n.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id!r}; know {TABLE_IDS}")
    if table_id in _MATRIX_SPECS:
        fixed_n = _MATRIX_SPECS[table_id][2]
        if ns is not None and ns != [fixed_n]:
            raise ValueError(f"{table_id} is the n={fixed_n} table; drop --n or pass {fixed_n}")
        return _check_matrix(table_id)
    return _check_stats(table_id, [1, 2, 3, 4, 5] if ns is None else ns)
