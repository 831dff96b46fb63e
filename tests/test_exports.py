"""Every name the package re-exports from one of its modules is in that
module's `__all__`: the package surface and the module surfaces agree."""

import ast
import importlib
from pathlib import Path

INIT = Path(__file__).resolve().parents[1] / "src" / "hodgecor" / "__init__.py"


def unlisted_exports(source: str) -> list:
    """(module, name) of each `from .<module> import name` whose name is not
    in `hodgecor.<module>.__all__`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"hodgecor.{node.module}")
            out.extend((node.module, alias.name) for alias in node.names
                       if alias.name not in module.__all__)
    return out


def test_every_export_is_in_its_module_all():
    assert unlisted_exports(INIT.read_text()) == []


def test_the_check_sees_unlisted_exports():
    source = ("from .engine import correlate, _Mixture\n"
              "from .geometry import INFINITY\n"
              "from numpy import pi\n")
    assert unlisted_exports(source) == [("engine", "_Mixture")]
