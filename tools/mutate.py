"""Check that the tests catch each committed fault in the package.

    python3 tools/mutate.py [NAME ...]

Each row of ``MUTANTS`` is one fault: a file of ``src/multifan``, an
exact text that occurs there once, the text that replaces it, and the
tests that must fail with it.  For each row (or each NAME given), the
package of this checkout is copied into a temporary directory, the
row's text is replaced there, and only the row's tests run, against the
copy.  A row is killed when every one of its tests fails; it survives
when one of them passes.  The tool exits 1 when a row's text is not
found exactly once, a named test runs no case, or a row survives: a
rewrite of the code must port or retire the rows it touches.  An
unknown NAME exits 2.  Nothing is written into the checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    # test node ids, relative to tests/, every one of which must fail
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("strict pre-test", "fan.py", "* det >= 0)", "* det > 0)", (
        "test_fan.py::test_point_pretest_is_exact",
        "test_fan.py::test_whole_row_location_matches_the_fields",
        "test_fan.py::test_base_point_on_the_boundary_of_another_cone",
        "test_fan.py::test_certificate_matches_from_scratch_on_constructions",
    )),
    Mutant("pre-test without the flip's sign", "fan.py",
           "and s * read(parent.row(None)", "and read(parent.row(None)", (
        "test_fan.py::test_point_pretest_is_exact",
        "test_fan.py::test_whole_row_location_matches_the_fields",
        "test_fan.py::test_base_point_on_the_boundary_of_another_cone",
        "test_fan.py::test_certificate_matches_from_scratch_on_constructions",
        "test_fan.py::test_double_cover_fails_base_condition",
        "test_fan.py::test_walk_derives_few_columns_and_ranks",
        "test_cli.py::test_check_double_cover_exit_code",
    )),
    Mutant("children rule one short", "subword.py", "if q > low else [])", "if q > low + 1 else [])", (
        "test_subword.py::test_children_decided_from_the_parent_on_drawn_words",
        "test_subword.py::test_walk_tree_of_c2_w0_is_pinned",
        "test_subword.py::test_walk_records_are_pinned",
    )),
    Mutant("unreflected root", "subword.py",
           "(p := at[rb[key[y]] if q < y < x else key[y]])", "(p := at[key[y]])", (
        "test_subword.py::test_children_decided_from_the_parent_on_drawn_words",
        "test_subword.py::test_walk_records_are_pinned",
        "test_fan.py::test_walk_results_are_pinned",
    )),
    Mutant("wrong divisor", "exactla.py", "x * last // div[-1]", "x * last // div[0]", (
        "test_exactla.py::test_first_row_dets_match_fraction_oracle",
        "test_fan.py::test_self_check_passes_at_every_facet",
    )),
    Mutant("self-check ray dropped", "fan.py", "ray or rows[0]]", "rows[0]]", (
        "test_fan.py::test_self_check_passes_at_every_facet",
        "test_fan.py::test_certify_pattern_small",
    )),
    Mutant("entry orientation swapped", "fan.py",
           "orient = orient if k else -orient", "orient = -orient if k else orient", (
        "test_fan.py::test_certificate_matches_from_scratch_on_constructions",
    )),
    Mutant("route rank one too low", "fan.py",
           "- (self.parent.f & ~self.f).bit_count()", "- (self.parent.f & ~self.f).bit_count() - 1", (
        "test_fan.py::test_certificate_matches_from_scratch_on_constructions",
        "test_fan.py::test_certificate_matches_from_scratch_on_drawn_words",
    )),
    Mutant("_Layout half one bit short", "fan.py", "self.half = 1 << (width - 1)", "self.half = 1 << (width - 2)", (
        "test_fan.py::test_certificate_matches_from_scratch_on_drawn_words",
    )),
    Mutant("_reflect leaves the keys unreflected", "subword.py",
           "key[r] = rb[key[r]]", "key[r] = key[r]", (
        "test_subword.py::test_pentagon_flip_graph_is_5_cycle",
        "test_subword.py::test_walk_matches_bfs_on_drawn_words",
        "test_subword.py::test_children_decided_from_the_parent_on_drawn_words",
        "test_subword.py::test_walk_records_are_pinned",
    )),
    Mutant("_reflect starts at q + 2", "subword.py", "range(q + 1, x)", "range(q + 2, x)", (
        "test_subword.py::test_pentagon_flip_graph_is_5_cycle",
        "test_subword.py::test_walk_matches_bfs_on_drawn_words",
        "test_subword.py::test_children_decided_from_the_parent_on_drawn_words",
        "test_subword.py::test_walk_records_are_pinned",
    )),
    Mutant("entering_positions leaves a facet root's pair unordered", "subword.py",
           "roots.append(u * m + v if u < v else v * m + u)", "roots.append(u * m + v)", (
        "test_subword.py::test_naive_and_root_flips_agree_on_drawn_words",
        "test_subword.py::test_carried_partners_match_root_configuration",
        "test_subword.py::test_walk_records_are_pinned",
        "test_fan.py::test_certificate_matches_from_scratch_on_constructions",
    )),
    Mutant("_Layout.nonnegative reads the top field only", "fan.py",
           "return not row & self.bias", "return row >= 0", (
        "test_fan.py::test_whole_row_location_matches_the_fields",
        "test_fan.py::test_point_pretest_is_exact",
        "test_fan.py::test_certificate_matches_from_scratch_on_constructions",
    )),
    Mutant("_width without d (d + 1) / 2", "fan.py",
           "(d * (d + 1) // 2 * min(by_rows, by_columns))", "min(by_rows, by_columns)", (
        "test_fan.py::test_whole_row_location_matches_the_fields",
        "test_fan.py::test_tableau_width_at_hadamard_equality",
        "test_fan.py::test_certificate_matches_from_scratch_on_drawn_rays",
    )),
    Mutant("ridge between two exceptions counted twice", "fan.py",
           "if h < f and h in exceptions:", "if h < 0 and h in exceptions:", (
        "test_fan.py::test_certificate_matches_from_scratch_on_constructions",
        "test_fan.py::test_certificate_matches_from_scratch_on_drawn_words",
    )),
    Mutant("ridge between two exceptions counted from neither", "fan.py",
           "if h < f and h in exceptions:", "if h in exceptions:", (
        "test_fan.py::test_certificate_matches_from_scratch_on_constructions",
        "test_fan.py::test_certificate_matches_from_scratch_on_drawn_words",
    )),
    Mutant("ridge loop reads a non-exception neighbour's sign as the exception's own", "fan.py",
           "other = exceptions.get(h, base)", "other = exceptions.get(h, sign)", (
        "test_fan.py::test_walk_results_are_pinned[perturbed]",
        "test_fan.py::test_walk_results_are_pinned[pattern-verbatim]",
        "test_rays.py::test_pattern_verbatim_fails_certification_with_ridge_witness",
    )),
    Mutant("braid cell read right to left", "moves.py",
           "(n + 1 - ell, k))", "(n + 1 - ell, ell - k))", (
        "test_rays.py::test_ray_files_and_traces_pinned",
        "test_moves.py::test_braid_moves_in_fattening_have_expected_labels",
    )),
)


def outcomes(report: Path) -> dict[str, bool]:
    """Each test case of a JUnit report, by its id ``file.py::name``:
    whether it passed."""
    return {f"{case.get('classname').rpartition('.')[2]}.py::{case.get('name')}":
            not any(child.tag in ("failure", "error", "skipped") for child in case)
            for case in ET.parse(report).getroot().iter("testcase")}


def run(mutant: Mutant, into: Path) -> str | None:
    """Apply ``mutant`` to a copy of the package in ``into`` and run its
    tests: None if it is killed, else what went wrong."""
    package = into / "src" / "multifan"
    shutil.copytree(ROOT / "src" / "multifan", package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"{mutant.file} holds {mutant.old!r} {text.count(mutant.old)} times, not once"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(into / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import multifan; print(multifan.__file__)"],
                           env=env, cwd=into, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(package):
        return f"the tests would import {where.stdout.strip()}, not the copy"
    report = into / "report.xml"
    subprocess.run([sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider",
                    f"--junitxml={report}", *(str(ROOT / "tests" / test) for test in mutant.tests)],
                   env=env, cwd=into, capture_output=True)
    if not report.is_file():
        return "the tests did not run"
    cases = outcomes(report)
    missing = [test for test in mutant.tests
               if not any(case == test or case.startswith(test + "[") for case in cases)]
    if missing:
        return f"no test ran for {', '.join(missing)}"
    passed = sorted(case for case, ok in cases.items() if ok)
    if passed:
        return f"{len(passed)} of {len(cases)} tests passed: {', '.join(passed)}"
    return None


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            problem = run(mutant, Path(tmp))
        failed += problem is not None
        print(f"{'killed' if problem is None else 'FAILED':7} {mutant.name} "
              f"({len(mutant.tests)} tests){'' if problem is None else ': ' + problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
