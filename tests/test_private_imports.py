"""No module of the package imports another module's private (underscore)
name: a helper two modules need lives, public, in one of them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hodgecor"


def private_sibling_imports(source: str) -> list:
    """(line, module, name) of each `from <sibling> import _name`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "hodgecor":
            continue
        out.extend((node.lineno, "." * node.level + module, alias.name)
                   for alias in node.names if alias.name.startswith("_"))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path.read_text()) == []


def test_the_check_sees_private_imports():
    source = ("from .tree_calculus import PlaneTree, _perm_parity\n"
              "from hodgecor.engine import _Mixture\n"
              "from numpy import _core\n"
              "from .geometry import INFINITY\n")
    assert private_sibling_imports(source) == [
        (1, ".tree_calculus", "_perm_parity"), (2, "hodgecor.engine", "_Mixture")]
