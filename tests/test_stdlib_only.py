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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_definition_is_referenced():
    # a module-level private function or class, or a private method, that no
    # code in the package names is a helper a simplification left behind
    defined, referenced = [], set()
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        defined += [(name, node.name) for body in scopes for node in body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and _private(node.name)]
        referenced |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert len(defined) > 50
    assert [d for d in defined if d[1] not in referenced] == []


def test_every_local_name_is_read():
    # a name a function assigns that nothing in the function, nested
    # functions included, reads is a lookup or a result a simplification left
    # behind; names starting with _ are exempt, and names a function declares
    # global or nonlocal are not its locals
    checked, unread = 0, []
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            checked += 1
            stored, read = set(), set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    (stored if isinstance(node.ctx, ast.Store) else read).add(node.id)
                elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                    read.add(node.target.id)
                elif isinstance(node, (ast.Global, ast.Nonlocal)):
                    read.update(node.names)
            unread += [(name, fn.name, n) for n in sorted(stored - read) if not n.startswith("_")]
    assert checked > 100
    assert unread == []


def test_every_public_member_of_the_complex_is_read_in_the_package():
    # a TwoComplex method, or an attribute its __init__ sets, that only the
    # tests read belongs in tests/oracles.py
    members, read = set(), set()
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "TwoComplex":
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                members |= {m.name for m in methods}
                init = next(m for m in methods if m.name == "__init__")
                members |= {t.attr for n in ast.walk(init) if isinstance(n, ast.Assign)
                            for t in n.targets if isinstance(t, ast.Attribute)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    public = {m for m in members if not m.startswith("_")}
    assert {"skeleton", "edge_index", "vertices", "cached"} <= public
    assert sorted(public - read) == []


SPANS = os.path.join(os.path.dirname(PACKAGE), os.pardir, "perfbench", "spans.py")


def test_every_public_function_of_linalg_is_read_in_the_package_or_traced():
    # a public function or class of linalg.py that no other module of the
    # package names, and that perfbench/spans.py does not trace by name, is
    # a cross-check helper or a leftover: it belongs in tests/oracles.py
    with open(os.path.join(PACKAGE, "linalg.py"), encoding="utf-8") as fh:
        public = {node.name for node in ast.parse(fh.read()).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
    named = set()
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "linalg.py"):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    with open(SPANS, encoding="utf-8") as fh:
        targets = next(ast.literal_eval(node.value) for node in ast.parse(fh.read()).body
                       if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS")
    traced = {attr.split(".")[0] for home, attr, _ in targets.values() if home == "linalg"}
    assert {"smith_normal_form", "RationalSolver"} <= public
    assert "solve_integer" in traced
    assert sorted(public - named - traced) == []


def test_every_unexported_public_definition_is_read_in_the_package_or_traced():
    # a public module-level function or class that __init__ does not export,
    # that no code of the package names and that perfbench/spans.py does not
    # trace by name, serves only the tests: it belongs in tests/oracles.py
    with open(os.path.join(PACKAGE, "__init__.py"), encoding="utf-8") as fh:
        exported = {alias.asname or alias.name for node in ast.parse(fh.read()).body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
    public, named = [], set()
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py"):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        public += [(name, node.name) for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")]
        named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    with open(SPANS, encoding="utf-8") as fh:
        targets = next(ast.literal_eval(node.value) for node in ast.parse(fh.read()).body
                       if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS")
    traced = {(home + ".py", attr.split(".")[0]) for home, attr, _ in targets.values()}
    assert ("linalg.py", "solve_integer") in traced and ("filling.py", "fv") in traced
    assert len(public) > 50 and {"TwoComplex", "fv"} <= exported
    assert [d for d in public
            if d[1] not in exported and d[1] not in named and d not in traced] == []
