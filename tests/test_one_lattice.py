"""Every torus lattice sum in `geometry` takes its points from `_lattice`:
no other function there builds a grid with `meshgrid`."""

import ast
from pathlib import Path

GEOMETRY = Path(__file__).resolve().parents[1] / "src" / "hodgecor" / "geometry.py"


def meshgrid_calls(source: str) -> list:
    """(line, qualified name of the enclosing function) of each call to a
    `meshgrid`, whether named bare or as an attribute."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "meshgrid":
                    out.append((child.lineno, owner))
            visit(child, owner)

    visit(ast.parse(source), "")
    return out


def test_only_lattice_builds_grids():
    calls = meshgrid_calls(GEOMETRY.read_text())
    assert calls and all(owner == "_lattice" for _, owner in calls), calls


def test_the_check_sees_grids():
    source = ("import numpy as np\n"
              "from numpy import meshgrid\n"
              "def _lattice(r):\n"
              "    return np.meshgrid(r, r)\n"
              "class Curve:\n"
              "    def green(self, r):\n"
              "        return meshgrid(r, r)\n"
              "    def _lattice(self, r):\n"
              "        return np.meshgrid(r, r)\n"
              "grid = np.meshgrid([0], [1])\n")
    assert meshgrid_calls(source) == [
        (4, "_lattice"), (7, "Curve.green"), (9, "Curve._lattice"), (10, "")]
