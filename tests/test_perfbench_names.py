"""Every package name that the benchmark harness resolves must exist.

``perfbench/tracer.py`` wraps each ``(layer, function)`` of its ``TRACED``
table when it starts, and the harness scripts import further names from
the package; a rename or removal in ``src/`` breaks the benchmark only
when it runs.  This reads ``perfbench/`` as source text, without
importing it, and checks each name against the package.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced(tree: ast.Module) -> set[tuple[str, str]]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {(layer, fn) for layer, fn, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py has no TRACED table")


def _imported(tree: ast.Module) -> set[tuple[str, str]]:
    return {(node.module[len("multifan."):], alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("multifan.")
            for alias in node.names}


def resolved_names() -> set[tuple[str, str]]:
    """``(module, name)`` for every package name that ``perfbench/`` uses."""
    names = _traced(ast.parse((PERFBENCH / "tracer.py").read_text()))
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= _imported(ast.parse(path.read_text()))
    return names


def test_perfbench_names_exist_in_the_package():
    names = resolved_names()
    assert ("fan", "_stats") in names and ("subword", "bitset_of") in names
    missing = sorted(f"multifan.{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(f"multifan.{module}"), name))
    assert not missing, f"perfbench resolves names the package lacks: {missing}"
