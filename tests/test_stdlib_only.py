"""The package is pure standard library: every import in ``src/finefill``
is relative or names a standard-library module."""

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "finefill")


def test_package_imports_only_the_standard_library():
    names = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "__init__.py" in names and "cli.py" in names
    outside = []
    for name in names:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [(name, m) for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# names imported only to be looked up by name from outside the module:
# perfbench/spans.py wraps finefill.fineness.fv
PINNED_IMPORTS = {("fineness.py", "fv")}


def test_every_imported_name_is_used():
    # __init__.py imports to re-export, so only the other modules are read
    names = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")
    assert "fineness.py" in names
    unused = []
    for name in names:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(alias.asname or alias.name).split(".")[0]
                             for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, n) for n in sorted(imported - used)
                   if (name, n) not in PINNED_IMPORTS]
    assert unused == []
