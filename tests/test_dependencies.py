"""Runtime dependency contract: the package imports only the standard
library, numpy and click."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lmsbound"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "click", "lmsbound"}
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert PACKAGE / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_click(path):
    assert set(imported_roots(path)) <= ALLOWED
