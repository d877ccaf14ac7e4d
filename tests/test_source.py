"""Source hygiene of the package, read with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detrep"
# ``__init__.py`` imports names to re-export them, so it is not checked.
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """The names a module imports and never reads, in import order.

    A dotted ``import a.b`` binds ``a``; an attribute chain is read through
    the name at its root; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import math\nimport os.path\nfrom typing import List, Tuple as Pair\nx: Pair = math.pi\n"
    assert unused_imports(source) == ["os", "List"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.zeros(1)\n") == []


def test_the_package_has_modules_to_check():
    assert {path.stem for path in MODULES} >= {"linalg", "ideals", "tangent", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def asserts(source):
    """The line numbers of a module's ``assert`` statements."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_check_sees_an_assert():
    source = "def f(x):\n    assert x, 'stripped by -O'\n    return x\n\n\nclass C:\n    def g(self):\n        assert self\n"
    assert asserts(source) == [2, 8]
    assert asserts("assert_ = 'assert x'\n# assert x\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_has_an_assert_statement(path):
    # ``python -O`` strips assert statements, and every re-check must survive it.
    assert asserts(path.read_text(encoding="utf-8")) == []
