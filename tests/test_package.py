import ast
import re
from collections import Counter
from pathlib import Path

import radsurj

from support import run_child

# Runs in a fresh interpreter so that modules the test suite itself
# loads (pytest, sympy, hypothesis) cannot hide or fake an import.
_IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
before = set(sys.modules)
import radsurj
for info in pkgutil.iter_modules(radsurj.__path__):
    importlib.import_module("radsurj." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(n for n in loaded if n != "radsurj" and n not in sys.stdlib_module_names)
assert not foreign, foreign
missing = [n for n in radsurj.__all__ if not hasattr(radsurj, n)]
assert not missing, missing
print(len(radsurj.__all__))
"""


def test_package_imports_only_the_standard_library():
    done = run_child(["-c", _IMPORT_EVERYTHING], timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == len(radsurj.__all__) > 0


def _imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names the module's import statements bind, and the names it reads
    or re-exports through __all__."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return imported, used


def test_every_import_is_used():
    for path in sorted(Path(radsurj.__file__).parent.glob("*.py")):
        imported, used = _imported_and_used(ast.parse(path.read_text(encoding="utf-8")))
        assert imported <= used, (path.name, sorted(imported - used))


def test_no_module_imports_another_modules_private_names():
    for path in sorted(Path(radsurj.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private = [
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").partition(".")[0] == "radsurj")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert not private, (path.name, private)


def test_every_private_name_is_read_in_its_module():
    for path in sorted(Path(radsurj.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        read = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        dead = sorted(n for n in defined if n.startswith("_") and not n.endswith("__") and n not in read)
        assert not dead, (path.name, dead)


def test_modular_imports_nothing_from_the_package():
    # prime-field arithmetic stays below every other module, so any of
    # them can call it without an import cycle
    tree = ast.parse((Path(radsurj.__file__).parent / "modular.py").read_text(encoding="utf-8"))
    package = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").partition(".")[0] == "radsurj"))
        or (isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "radsurj" for a in node.names))
    ]
    assert not package, package


def _loads(tree: ast.AST) -> Counter:
    """How often each name is read, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_function_is_read_by_the_package_or_documented():
    # a function only the tests call, such as an oracle or a printer,
    # belongs in tests/support.py
    readme = (Path(radsurj.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    library_use = readme.partition("## Library use")[2].partition("\n## ")[0]
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(radsurj.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    ]
    loads = sum(map(_loads, trees), Counter())
    unread = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and loads[node.name] == _loads(node)[node.name]
        and not re.search(rf"\b{node.name}\b", library_use)
    ]
    assert not unread, unread
