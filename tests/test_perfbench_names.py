"""Every package name that the benchmark harness resolves must exist.

``perfbench/tracer.py`` wraps each ``(layer, function)`` of its ``TRACED``
table when it starts, and the harness scripts import further names from
the package; a rename or removal in ``src/`` breaks the benchmark only
when it runs.  This reads ``perfbench/`` as source text, without
importing it, and checks each name against the package.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_cli_import_loads_every_traced_layer():
    # ``Tracer.install`` wraps traced functions only in the modules that
    # ``import multifan.cli`` loads, so a layer that ``cli`` imports lazily
    # would record no span at all.  ``tables`` is the known exception:
    # ``cmd_reproduce`` imports it on first use, and its
    # ``reproduce_table`` span reads 0 calls (an open finding in
    # CHANGES.md).  Any further lazy import fails here.
    layers = {layer for layer, _ in _traced(ast.parse((PERFBENCH / "tracer.py").read_text()))}
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = ("import sys, multifan.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('multifan.'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    loaded = set(out.stdout.split())
    missing = sorted(f"multifan.{layer}" for layer in layers - {"tables"}
                     if f"multifan.{layer}" not in loaded)
    assert not missing, f"import multifan.cli leaves traced layers unloaded: {missing}"
