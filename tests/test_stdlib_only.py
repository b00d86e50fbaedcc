"""The package imports nothing outside the standard library.

This reads every module of ``src/multifan`` as source text and collects
the top-level name of each ``import`` and absolute ``from ... import``,
at any depth of the module: each must be a standard-library module or
the package itself.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "multifan"


def _imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = {path.relative_to(PACKAGE).as_posix(): _imports(path) for path in modules}
    # the scan sees the imports that the walk's exact arithmetic rests on
    assert {"math", "fractions"} <= found["fan.py"]
    outside = {module: sorted(name for name in names if name not in sys.stdlib_module_names | {"multifan"})
               for module, names in found.items()}
    assert not any(outside.values()), outside
